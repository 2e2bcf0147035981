// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its rows/series each iteration and reporting
// the headline metric), plus micro-benchmarks for the pipeline stages.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment custom metrics (recall_pct, reduction_pct, ...) are
// the values recorded in EXPERIMENTS.md next to the paper's numbers.
package prefix2org_test

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/experiments"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
	benchDir  string
)

// env builds one paper-scale environment shared by all benchmarks.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "p2o-bench")
		if benchErr != nil {
			return
		}
		benchEnv, benchErr = experiments.Setup(context.Background(), synth.DefaultConfig(), benchDir)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1AllocationMapping regenerates the 22-type DO/DC mapping.
func BenchmarkTable1AllocationMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTable2StringCleaning regenerates the cleaning-step counts and
// reports the name-reduction percentage (paper: ~12%).
func BenchmarkTable2StringCleaning(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Table2() == nil {
			b.Fatal("nil table")
		}
	}
	b.ReportMetric(e.Table2Reduction(), "reduction_pct")
}

// BenchmarkTable3Excerpt regenerates the aggregation excerpt.
func BenchmarkTable3Excerpt(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Table3() == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTable4DatasetMetrics regenerates the key-metric table and
// reports the multi-name space share (paper: 36.9% of IPv4 space).
func BenchmarkTable4DatasetMetrics(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Table4() == nil {
			b.Fatal("nil table")
		}
	}
	b.ReportMetric(e.DS.Stats.PctV4SpaceInMultiName, "multiname_space_pct")
	b.ReportMetric(e.DS.Stats.PctV4DistinctDC, "v4_distinct_dc_pct")
	b.ReportMetric(e.DS.Stats.PctV4InRPKI, "v4_rpki_pct")
}

// BenchmarkTable5ValidationIPv4 regenerates the IPv4 validation and
// reports overall recall (paper: 99.03%) and precision (paper: 66.55%,
// depressed by non-exhaustive lists).
func BenchmarkTable5ValidationIPv4(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var recall, precision float64
	for i := 0; i < b.N; i++ {
		_, rep, err := e.Table5()
		if err != nil {
			b.Fatal(err)
		}
		recall, precision = rep.Total.Recall(), rep.Total.Precision()
	}
	b.ReportMetric(recall, "recall_pct")
	b.ReportMetric(precision, "precision_pct")
}

// BenchmarkTable6ValidationIPv6 regenerates the IPv6 validation (paper
// recall: 99.31%).
func BenchmarkTable6ValidationIPv6(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		_, rep, err := e.Table6()
		if err != nil {
			b.Fatal(err)
		}
		recall = rep.Total.Recall()
	}
	b.ReportMetric(recall, "recall_pct")
}

// BenchmarkTable7ROADisparity regenerates the AS-centric vs
// prefix-centric ROA comparison and reports how many ASNs show a >30pp
// disparity.
func BenchmarkTable7ROADisparity(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	disparate := 0
	for i := 0; i < b.N; i++ {
		_, rows, err := e.Table7(3, 15)
		if err != nil {
			b.Fatal(err)
		}
		disparate = 0
		for _, r := range rows {
			if r.Disparity() > 30 {
				disparate++
			}
		}
	}
	b.ReportMetric(float64(disparate), "asns_over_30pp")
}

// BenchmarkTables8to12Rights regenerates the per-RIR rights matrices.
func BenchmarkTables8to12Rights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Tables8to12()) != 5 {
			b.Fatal("wrong table count")
		}
	}
}

// BenchmarkFigure4TopClustersSpace regenerates the cumulative-space
// series and reports the top-100 fractions for the three methods (paper:
// P2O 6.2pp above WHOIS-name clustering).
func BenchmarkFigure4TopClustersSpace(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var fd *experiments.FigureData
	for i := 0; i < b.N; i++ {
		fd = e.Figure4(100)
	}
	b.ReportMetric(100*fd.P2O, "p2o_top100_pct")
	b.ReportMetric(100*fd.Whois, "whois_top100_pct")
	b.ReportMetric(100*fd.AS2Org, "as2org_top100_pct")
}

// BenchmarkFigure5TopClustersNames regenerates the cumulative-names
// series (paper: >600 names in P2O's top-100 vs exactly 100 for
// WHOIS-name clusters).
func BenchmarkFigure5TopClustersNames(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var fd *experiments.FigureData
	for i := 0; i < b.N; i++ {
		fd = e.Figure5(100)
	}
	b.ReportMetric(fd.P2O, "p2o_top100_names")
	b.ReportMetric(fd.Whois, "whois_top100_names")
}

// BenchmarkCaseStudyOrgsWithoutASN regenerates §8.1 and reports the share
// of organizations without an ASN (paper: 21.41%).
func BenchmarkCaseStudyOrgsWithoutASN(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		_, rep, err := e.Case81(10)
		if err != nil {
			b.Fatal(err)
		}
		pct = rep.PctClusters()
	}
	b.ReportMetric(pct, "no_asn_org_pct")
}

// --- pipeline-stage micro-benchmarks ----------------------------------------

// benchWorkerCounts returns the serial-vs-parallel dimensions of the
// pipeline benchmark: 1 (the serial baseline), 4, and GOMAXPROCS when
// it differs from both.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkPipelineBuild measures the full pipeline over the paper-scale
// world's serialized data directory (parse + resolve + clean + cluster)
// and reports each stage's wall time from the build trace so regressions
// can be localized without a profiler. One sub-benchmark per worker
// count (serial baseline, 4, GOMAXPROCS) exposes how the load and
// resolve stages scale.
func BenchmarkPipelineBuild(b *testing.B) {
	e := env(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var trace *prefix2org.BuildTrace
			for i := 0; i < b.N; i++ {
				ds, err := prefix2org.BuildFromDir(context.Background(), e.Dir, prefix2org.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if ds.Stats.IPv4Prefixes == 0 {
					b.Fatal("empty dataset")
				}
				trace = ds.Trace
			}
			for _, sp := range trace.Spans() {
				b.ReportMetric(sp.Duration.Seconds(), sp.Name+"_s")
			}
		})
	}
}

// BenchmarkWorldGeneration measures synthetic-world generation.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := synth.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup measures dataset point queries.
func BenchmarkLookup(b *testing.B) {
	e := env(b)
	prefixes := make([]netip.Prefix, 0, 1024)
	for i := range e.DS.Records {
		prefixes = append(prefixes, e.DS.Records[i].Prefix)
		if len(prefixes) == cap(prefixes) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.DS.Lookup(prefixes[i%len(prefixes)]); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// benchAddrs returns up to 1024 routed addresses from the shared
// environment for LPM benchmarks.
func benchAddrs(b *testing.B) ([]netip.Addr, *experiments.Env) {
	e := env(b)
	addrs := make([]netip.Addr, 0, 1024)
	for i := range e.DS.Records {
		addrs = append(addrs, e.DS.Records[i].Prefix.Addr())
		if len(addrs) == cap(addrs) {
			break
		}
	}
	return addrs, e
}

// BenchmarkLookupAddr measures longest-prefix-match address queries —
// the whoisd hot path (one LPM per IP query) — on the frozen index.
// The acceptance bar is 0 allocs/op; internal/lpm's
// BenchmarkFrozenLookup / BenchmarkRadixLookup pair is where the index
// is timed against the reference radix tree.
func BenchmarkLookupAddr(b *testing.B) {
	addrs, e := benchAddrs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.DS.LookupAddr(addrs[i%len(addrs)]); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// BenchmarkStoreSwapUnderLoad measures snapshot publication while
// GOMAXPROCS readers hammer Current()+LookupAddr — the serving-layer
// hot-swap cost. reads_per_swap reports how much reader throughput fits
// between consecutive swaps; readers never block on the swap path.
func BenchmarkStoreSwapUnderLoad(b *testing.B) {
	e := env(b)
	st := store.New(&store.Snapshot{Dataset: e.DS})
	addr := e.DS.Records[0].Prefix.Addr()
	stop := make(chan struct{})
	var reads int64
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for {
				select {
				case <-stop:
					atomic.AddInt64(&reads, n)
					return
				default:
				}
				ds := st.Current().Dataset
				if _, ok := ds.LookupAddr(addr); !ok {
					panic("lookup miss")
				}
				n++
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh wrapper per swap: published snapshots are immutable.
		st.Swap(&store.Snapshot{Dataset: e.DS})
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(reads)/float64(b.N), "reads_per_swap")
}

// BenchmarkCoveringChain measures the delegation-tree primitive — the
// covering chain resolveOne walks per routed prefix — on the frozen
// index, into a reused buffer.
func BenchmarkCoveringChain(b *testing.B) {
	base := netip.MustParsePrefix("10.0.0.0/8")
	items := []lpm.Item{{Prefix: base}}
	// A 16-level nested chain plus fan-out siblings.
	for bits := 9; bits <= 24; bits++ {
		items = append(items, lpm.Item{Prefix: netip.PrefixFrom(base.Addr(), bits), Val: int32(bits)})
	}
	for i := 0; i < 4096; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0})
		items = append(items, lpm.Item{Prefix: netip.PrefixFrom(a, 24), Val: int32(i)})
	}
	ix := lpm.Freeze(items)
	q := netip.MustParsePrefix("10.0.0.0/26")
	buf := make([]int32, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = ix.CoveringInto(q, buf[:0]); len(buf) != 17 {
			b.Fatalf("chain of %d, want 17", len(buf))
		}
	}
}

// BenchmarkAblation regenerates the §6 component analysis (each
// clustering signal disabled in turn) and reports the cluster counts.
func BenchmarkAblation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var results []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = e.Ablation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(results[0].Stats.FinalClusters), "full_clusters")
	b.ReportMetric(float64(results[3].Stats.FinalClusters), "w_only_clusters")
}

// BenchmarkLeasingInference regenerates the §9 leasing-detection
// extension and reports the candidate count.
func BenchmarkLeasingInference(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		_, cands, err := e.Leasing(8)
		if err != nil {
			b.Fatal(err)
		}
		n = len(cands)
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkSnapshotSaveLoad measures dataset snapshot serialization in
// both formats. The binary load path is the one the store reloader
// takes on every hot swap; the acceptance bar is binary-load at least
// 3x faster than json-load.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	e := env(b)
	var jsonSnap, binSnap bytes.Buffer
	if err := e.DS.Save(&jsonSnap); err != nil {
		b.Fatal(err)
	}
	if err := e.DS.SaveBinary(&binSnap); err != nil {
		b.Fatal(err)
	}
	b.Run("json-save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			if err := e.DS.Save(&sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			back, err := prefix2org.Load(bytes.NewReader(jsonSnap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if len(back.Records) != len(e.DS.Records) {
				b.Fatal("lossy roundtrip")
			}
		}
	})
	b.Run("binary-save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := e.DS.SaveBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			back, err := prefix2org.Load(bytes.NewReader(binSnap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if len(back.Records) != len(e.DS.Records) {
				b.Fatal("lossy roundtrip")
			}
		}
	})
	b.ReportMetric(float64(jsonSnap.Len()), "json_bytes")
	b.ReportMetric(float64(binSnap.Len()), "binary_bytes")
}

// BenchmarkLoadBinaryV2 measures the eager decode of a v2 snapshot —
// the path LoadFile and non-view tools take. Contrast with
// BenchmarkOpenMmap, the in-place open of the same bytes.
func BenchmarkLoadBinaryV2(b *testing.B) {
	e := env(b)
	var snap bytes.Buffer
	if err := e.DS.SaveBinary(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := prefix2org.Load(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if back.NumRecords() != len(e.DS.Records) {
			b.Fatal("lossy roundtrip")
		}
	}
}

// BenchmarkOpenMmap is the cold-open comparison behind -snapshot-mmap:
// "view" maps a v2 snapshot and serves the first lookup without
// decoding a single record; "v1-decode" is the legacy format's full
// decode of the same dataset. The gap between the two is the startup
// win the view format exists for.
func BenchmarkOpenMmap(b *testing.B) {
	e := env(b)
	path := filepath.Join(benchDir, "bench-open.p2o")
	if err := e.DS.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := e.DS.SaveBinaryV1(&v1); err != nil {
		b.Fatal(err)
	}
	addr := e.DS.Records[0].Prefix.Addr()

	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{Mmap: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := ds.LookupAddr(addr); !ok {
				b.Fatal("lookup miss")
			}
			if err := ds.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v1-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := prefix2org.Load(bytes.NewReader(v1.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := ds.LookupAddr(addr); !ok {
				b.Fatal("lookup miss")
			}
		}
	})
}

// BenchmarkLookupAddrView measures steady-state lookups against a
// view-backed (mmap'd) dataset with every record chunk warm — the
// serve path of a daemon running -snapshot-mmap. The acceptance bar is
// parity with BenchmarkLookupAddr (the eagerly decoded index).
func BenchmarkLookupAddrView(b *testing.B) {
	e := env(b)
	path := filepath.Join(benchDir, "bench-lookup-view.p2o")
	if err := e.DS.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	ds, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{Mmap: true})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for i := 0; i < ds.NumRecords(); i++ {
		_ = ds.RecordAt(i) // warm every chunk: steady state, not first touch
	}
	addrs := make([]netip.Addr, 0, 1024)
	for i := range e.DS.Records {
		addrs = append(addrs, e.DS.Records[i].Prefix.Addr())
		if len(addrs) == cap(addrs) {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ds.LookupAddr(addrs[i%len(addrs)]); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// --- incremental-rebuild benchmarks ------------------------------------------

var (
	deltaBenchOnce sync.Once
	deltaBenchDir  string
	deltaBenchPrev *prefix2org.Dataset
	deltaBenchErr  error
)

// deltaBenchEnv prepares the incremental-rebuild scenario once: a
// paper-scale world built with delta state retained, then a BGP-origin
// churn step written over the same directory. Benchmarks then rebuild
// that churned directory from scratch (full) or by splicing (delta).
func deltaBenchEnv(b *testing.B) (string, *prefix2org.Dataset) {
	b.Helper()
	deltaBenchOnce.Do(func() {
		w, err := synth.Generate(synth.DefaultConfig())
		if err != nil {
			deltaBenchErr = err
			return
		}
		deltaBenchDir, deltaBenchErr = os.MkdirTemp("", "p2o-bench-delta")
		if deltaBenchErr != nil {
			return
		}
		if deltaBenchErr = w.WriteDir(deltaBenchDir); deltaBenchErr != nil {
			return
		}
		deltaBenchPrev, deltaBenchErr = prefix2org.BuildFromDir(
			context.Background(), deltaBenchDir, prefix2org.Options{Incremental: true})
		if deltaBenchErr != nil {
			return
		}
		if w, deltaBenchErr = w.Evolve(synth.EvolveOptions{Seed: 42, OriginShifts: 8}); deltaBenchErr != nil {
			return
		}
		deltaBenchErr = w.WriteDir(deltaBenchDir)
	})
	if deltaBenchErr != nil {
		b.Fatal(deltaBenchErr)
	}
	return deltaBenchDir, deltaBenchPrev
}

// BenchmarkDeltaRebuild contrasts the two ways to pick up a small input
// change: a full pipeline run over the churned directory versus an
// incremental BuildDelta splicing against the previous dataset. Both
// produce byte-identical snapshots (TestDeltaEquivalence). That the
// delta does work proportional to the change is gated on work counts,
// not on this quotient (TestDeltaManySmallSteps).
func BenchmarkDeltaRebuild(b *testing.B) {
	dir, prev := deltaBenchEnv(b)
	opts := prefix2org.Options{Incremental: true}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := prefix2org.BuildFromDir(context.Background(), dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if ds.NumRecords() == 0 {
				b.Fatal("empty dataset")
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		var res *prefix2org.DeltaResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = prefix2org.BuildDelta(context.Background(), prev, dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Dataset.NumRecords() == 0 {
				b.Fatal("empty dataset")
			}
		}
		b.ReportMetric(float64(res.Affected), "affected")
		b.ReportMetric(float64(res.Reused), "reused")
	})
}

// BenchmarkBuildManifest measures the change-detection floor: hashing
// every input file of the data directory. This is the cost a no-op
// delta reload pays to discover there is nothing to do.
func BenchmarkBuildManifest(b *testing.B) {
	dir, _ := deltaBenchEnv(b)
	var files int
	for i := 0; i < b.N; i++ {
		m, err := prefix2org.BuildManifest(context.Background(), dir)
		if err != nil {
			b.Fatal(err)
		}
		files = len(m.Entries)
	}
	b.ReportMetric(float64(files), "files")
}
