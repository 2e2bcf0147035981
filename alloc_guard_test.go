package prefix2org

import (
	"context"
	"math"
	"net/netip"
	"runtime"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// Allocation-regression guards for the serve path. These run under
// `make verify`: a change that re-introduces per-query heap traffic in
// the frozen-index lookups fails the build, not a later profiling
// session. The lpm package carries the same guards for the raw index
// (internal/lpm TestLookupZeroAlloc).

func TestLookupAddrZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	addrs := make([]netip.Addr, 0, 64)
	for i := range ds.Records {
		addrs = append(addrs, ds.Records[i].Prefix.Addr())
		if len(addrs) == cap(addrs) {
			break
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ds.LookupAddr(addrs[i%len(addrs)]); !ok {
			t.Fatal("lookup miss")
		}
		i++
	}); n != 0 {
		t.Errorf("LookupAddr allocates %.1f times per call, want 0", n)
	}
}

func TestLookupCoveringZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	p := ds.Records[0].Prefix
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ds.LookupCovering(p); !ok {
			t.Fatal("lookup miss")
		}
	}); n != 0 {
		t.Errorf("LookupCovering allocates %.1f times per call, want 0", n)
	}
}

func TestCoveringChainIntoZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	p := ds.Records[0].Prefix
	buf := make([]*Record, 0, 32)
	if n := testing.AllocsPerRun(200, func() {
		buf = ds.CoveringChainInto(p, buf[:0])
		if len(buf) == 0 {
			t.Fatal("empty chain")
		}
	}); n != 0 {
		t.Errorf("CoveringChainInto allocates %.1f times per call with a warm buffer, want 0", n)
	}
}

// TestResolveChainWalkZeroAlloc guards the build path's hottest walk:
// resolveOne's covering WHOIS chain, written into the worker's reused
// buffer, for every routed prefix of the world.
func TestResolveChainWalkZeroAlloc(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := BuildFromDir(context.Background(), dir, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, routed := ds.state.env.whois.Groups().Index(), ds.state.routed
	buf := make([]int32, 0, 64)
	i, links := 0, 0
	if n := testing.AllocsPerRun(len(routed), func() {
		buf = ix.CoveringInto(routed[i%len(routed)], buf[:0])
		links += len(buf)
		i++
	}); n != 0 {
		t.Errorf("covering-chain walk allocates %.1f times per prefix with a warm buffer, want 0", n)
	}
	if links < len(routed) {
		t.Fatalf("walked %d chain links over %d routed prefixes: the guard measured nothing", links, len(routed))
	}
}

// buildAllocCeiling and buildBytesCeiling are the allocation budget of
// one full build, in heap objects and in bytes per routed prefix: what
// BuildFromDir of the synth.SmallConfig() world measures plus 15 % when
// each was last set. Objects: 13.2 when last set, 12.9 now (12.7 before
// the WHOIS merge built its string table; 23.3 before WHOIS flattened
// where it is parsed and verify-delegated stopped keeping records; 39.7
// before the loaders scanned canonical lines in place and the resolve
// pass got a scratch). Bytes: 3537 when last set, with WHOIS entries of
// 40 bytes grouped in place (3867 while they were 104 bytes and the
// delegation index grouped a copy; 3882 before the BGP table became
// sorted columns; 4113 before the pass-1 slots became the Records, one
// Record copy per prefix less; 5002 before the flatten), a quarter of
// them the 64 KB scanner buffer each input file gets. They are ceilings, not targets:
// lower them when a change lowers the figures, and treat a change that
// needs one raised as one that needs a reason. Map and slice growth are
// the runtime's, so a toolchain bump (measured on go1.24) is such a
// reason: re-measure, do not pad.
const (
	buildAllocCeiling = 15.2
	buildBytesCeiling = 4068
)

// TestBuildAllocCeiling keeps the build's allocation diet: loaders that
// read canonical lines in place and keep no parsed record, one scratch
// per resolve worker. The figures count every load and every pass, with
// one worker so that they repeat.
func TestBuildAllocCeiling(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	build := func() *Dataset {
		ds, err := BuildFromDir(context.Background(), dir, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ds := build() // warm-up: metrics registered, one-time tables built
	routed := len(ds.Records) + ds.Stats.Unmapped
	// MemStats counts the whole process: the least of a few runs is the
	// build's own, whatever the test binary's other goroutines did.
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	perPrefix, bytesPerPrefix := float64(mallocs)/float64(routed), float64(bytes)/float64(routed)
	t.Logf("%d allocations, %d bytes for %d routed prefixes: %.1f objects, %.0f bytes per prefix", mallocs, bytes, routed, perPrefix, bytesPerPrefix)
	if perPrefix > buildAllocCeiling {
		t.Errorf("a full build allocates %.1f objects per routed prefix, ceiling %.1f", perPrefix, buildAllocCeiling)
	}
	if bytesPerPrefix > buildBytesCeiling {
		t.Errorf("a full build allocates %.0f bytes per routed prefix, ceiling %d", bytesPerPrefix, buildBytesCeiling)
	}
}

// deltaStateCeiling is the memory an Incremental Dataset's delta state
// pins beyond the Dataset itself, in bytes per routed prefix: what the
// synth.SmallConfig() world measures plus 10 %: 325 when last set (496
// while the WHOIS entries were 104 bytes each and held twice, by the
// per-registry runs and by the delegation index; 690 while the state
// held the BGP table as a map with a routed list and origins column
// beside it, and the whole RPKI repository, ROAs and their index
// included). It is a ceiling, not a target: lower it when a change
// lowers the figure. The margin is narrow on purpose: the figure repeats
// to the byte, and keeping the ROAs again must fail it.
const deltaStateCeiling = 358

// liveHeap is the live heap after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// stateMembers are the parts of a build's delta state, each as what
// dropping it releases on its own. The BGP table's prefix and origin
// columns are routed and origins, so the three go together.
var stateMembers = []struct {
	name string
	drop func(*buildState)
}{
	{"whois", func(st *buildState) { st.env.whois = nil }},
	{"bgp", func(st *buildState) { st.env.table, st.routed, st.origins = nil, nil, nil }},
	{"certs", func(st *buildState) { st.env.certs = nil }},
	{"asClusters", func(st *buildState) { st.env.asClusters = nil }},
	{"clean", func(st *buildState) { st.fin.clean = nil }},
	{"merge", func(st *buildState) { st.fin.merge = nil }},
	{"stats", func(st *buildState) { st.fin.stats = nil }},
	{"manifest", func(st *buildState) { st.manifest = nil }},
	{"arinLegacy", func(st *buildState) { st.arinLegacy = nil }},
}

// logStatePins builds dir with Options.Incremental once per member of
// the delta state and logs the bytes dropping that member alone frees:
// where the state's memory goes, read off the test log.
func logStatePins(t *testing.T, dir string) {
	t.Helper()
	for _, m := range stateMembers {
		ds, err := BuildFromDir(context.Background(), dir, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		with := liveHeap()
		m.drop(ds.state)
		t.Logf("delta state member %-10s pins %8d bytes", m.name, with-liveHeap())
		runtime.KeepAlive(ds)
	}
}

// TestDeltaStateCeiling keeps what a -reload-delta daemon holds for its
// life small: the previous build's state, retained so the next delta can
// splice against it. It is measured as the live heap after a collection
// with the state attached, less the live heap once it is dropped; the
// least of a few runs is the state's own. The log lists what each member
// of the state pins.
func TestDeltaStateCeiling(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	pinned, routed := int64(math.MaxInt64), 0
	for range 3 {
		ds, err := BuildFromDir(context.Background(), dir, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		routed = len(ds.state.routed)
		with := liveHeap()
		ds.state = nil
		pinned = min(pinned, with-liveHeap())
		runtime.KeepAlive(ds)
	}
	perPrefix := float64(pinned) / float64(routed)
	t.Logf("delta state pins %d bytes for %d routed prefixes: %.0f bytes per prefix", pinned, routed, perPrefix)
	if perPrefix > deltaStateCeiling {
		t.Errorf("an Incremental Dataset's delta state pins %.0f bytes per routed prefix, ceiling %d", perPrefix, deltaStateCeiling)
	}
	logStatePins(t, dir)
}

// deltaBytesCeiling is what one BuildDelta step allocates, in bytes per
// routed prefix of the directory it arrives at, by step kind: the
// synth.SmallConfig() world measures plus 15 %. The steps are the
// reload-delta benchmark's, at this scale: routing churn alone (bgp),
// churn in every source (whois), and both undone at once (revert).
// When last set they measured bgp 682, whois 2266 and revert 2311
// (940, 2682 and 2670 while every delta re-ran the cluster merge, name
// cleaning and stats over all records). Like buildBytesCeiling they are
// ceilings, not targets: lower them when a change lowers the figures.
var deltaBytesCeiling = map[string]float64{"bgp": 784, "whois": 2606, "revert": 2658}

// TestDeltaAllocCeiling keeps what a delta allocates proportional to
// what it changes. Each step runs from a Dataset built once, with one
// worker so that the figures repeat; the least of a few runs is the
// step's own.
func TestDeltaAllocCeiling(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dirs [3]string
	for i, step := range []synth.EvolveOptions{{}, {Seed: 31, OriginShifts: 20}, {Seed: 32, Transfers: 2, NewDelegations: 2, NewAdopters: 1, Acquisitions: 1}} {
		if i > 0 {
			if w, err = w.Evolve(step); err != nil {
				t.Fatal(err)
			}
		}
		dirs[i] = t.TempDir()
		if err := w.WriteDir(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Workers: 1, Incremental: true}
	var built [3]*Dataset
	for i, dir := range dirs {
		if built[i], err = BuildFromDir(context.Background(), dir, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i, kind := range []string{"bgp", "whois", "revert"} {
		from, to := built[i], dirs[(i+1)%3]
		step := func() *DeltaResult {
			res, err := BuildDelta(context.Background(), from, to, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res := step() // warm-up
		routed := res.Dataset.NumRecords() + res.Dataset.Stats.Unmapped
		bytes := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			step()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		perPrefix := float64(bytes) / float64(routed)
		t.Logf("%s step (%d changed files, %d affected): %d bytes for %d routed prefixes, %.0f per prefix", kind, len(res.ChangedFiles), res.Affected, bytes, routed, perPrefix)
		if perPrefix > deltaBytesCeiling[kind] {
			t.Errorf("a %s delta allocates %.0f bytes per routed prefix, ceiling %.0f", kind, perPrefix, deltaBytesCeiling[kind])
		}
	}
}
