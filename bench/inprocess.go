package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/rtr"
)

// The build and delta workloads call the library in-process. They run
// in a fresh child of the bench binary, so the child's VmHWM is the
// build's memory and not the world generator's.

// childReport is what a workload child hands back to its parent.
type childReport struct {
	SetupS    float64            `json:"setup_s"`
	Ops       []float64          `json:"ops_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	RSSMB     float64            `json:"rss_mb"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

type childConfig struct {
	workload string
	work     string
	seed     int64
	dur      time.Duration
	trace    bool
	quick    bool
	probes   bool // traced run: also time the layers no workload exercises
}

// layerSamples collects repeated timings of one layer; the report
// carries each layer's median.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) medians(into map[string]float64) {
	for name, v := range l {
		into[name] = median(v)
	}
}

// timeIt runs fn n times and records each duration, in the unit scale
// gives (1 for seconds, 1e3 for milliseconds).
func (l layerSamples) timeIt(name string, n int, scale float64, fn func() error) error {
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.add(name, time.Since(t).Seconds()*scale)
	}
	return nil
}

// buildStages maps Dataset.Trace span names to per-layer metric names.
var buildStages = map[string]string{
	"load-whois":       "whois.load_s",
	"load-bgp":         "bgp.load_s",
	"load-rpki":        "rpki.load_s",
	"load-as2org":      "as2org.load_s",
	"verify-delegated": "delegated.verify_s",
	"flatten-whois":    "prefix2org.flatten_s",
	"resolve":          "prefix2org.resolve_s",
	"clean-names":      "names.clean_s",
	"cluster":          "cluster.cluster_s",
	"freeze-index":     "lpm.freeze_s",
	"stats":            "prefix2org.stats_s",
}

func runChild(ctx context.Context, c childConfig) (*childReport, error) {
	var rep *childReport
	var err error
	switch c.workload {
	case "build-full":
		rep, err = childBuildFull(ctx, c)
	case "reload-delta":
		rep, err = childReloadDelta(ctx, c)
	default:
		return nil, fmt.Errorf("workload %q does not run in a child", c.workload)
	}
	if err != nil {
		return nil, err
	}
	if rep.RSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return rep, nil
}

func snapshotSum(ds *prefix2org.Dataset) ([32]byte, error) {
	h := sha256.New()
	if err := ds.SaveBinary(h); err != nil {
		return [32]byte{}, err
	}
	return [32]byte(h.Sum(nil)), nil
}

// childBuildFull is the batch user's whole cost, repeated: build from
// disk, save the v2 snapshot, open it mapped and answer 1000 lookups.
func childBuildFull(ctx context.Context, c childConfig) (*childReport, error) {
	s0 := filepath.Join(c.work, "s0")
	snap := filepath.Join(c.work, "build-full.snap")
	tr := newTracer(c.trace)
	rep := &childReport{Layers: map[string]float64{}}
	layers := layerSamples{}
	var (
		addrs   []netip.Addr
		got     []netip.Prefix
		wantSum [32]byte
		last    *prefix2org.Dataset
	)
	op := func(name string) (time.Duration, error) {
		id, end := tr.begin(name, 0)
		defer end()
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		ds, err := prefix2org.BuildFromDir(ctx, s0, prefix2org.Options{})
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		if tr != nil {
			runtime.ReadMemStats(&after)
		}
		if addrs == nil {
			rng := rand.New(rand.NewSource(derive(c.seed, "build-lookups")))
			for i := 0; i < 1000; i++ {
				addrs = append(addrs, ds.RecordAt(rng.Intn(ds.NumRecords())).Prefix.Addr())
			}
			got = make([]netip.Prefix, len(addrs))
		}
		t1b := time.Now()
		if err := ds.SaveBinaryFile(snap); err != nil {
			return 0, err
		}
		t2 := time.Now()
		view, err := prefix2org.OpenSnapshotFile(ctx, snap, prefix2org.OpenOptions{Mmap: true})
		if err != nil {
			return 0, err
		}
		defer view.Close()
		for i, a := range addrs {
			got[i] = netip.Prefix{}
			if rec, ok := view.LookupAddr(a); ok {
				got[i] = rec.Prefix
			}
		}
		t3 := time.Now()
		lat := t3.Sub(t0) - t1b.Sub(t1)

		// Verification, outside the timed region: the view answers like
		// the dataset it was saved from, and every build of one
		// directory writes the same bytes.
		rep.Attempted++
		ok := true
		for i, a := range addrs {
			if rec, found := ds.LookupAddr(a); !found || rec.Prefix != got[i] {
				ok = false
				rep.Problems = append(rep.Problems, fmt.Sprintf("view lookup %s = %s, eager dataset disagrees", a, got[i]))
				break
			}
		}
		data, err := os.ReadFile(snap)
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256(data)
		if wantSum == ([32]byte{}) {
			wantSum = sum
		} else if sum != wantSum {
			ok = false
			rep.Problems = append(rep.Problems, "two builds of one directory wrote different snapshots")
		}
		if !ok {
			rep.Failed++
		}
		last = ds

		if tr != nil {
			tr.add("prefix2org.BuildFromDir", id, 0, t0, t1)
			tr.add("prefix2org.SaveBinaryFile", id, 0, t1b, t2)
			tr.add("prefix2org.OpenSnapshotFile+lookups", id, 0, t2, t3)
			for _, sp := range ds.Trace.Spans() {
				if m, ok := buildStages[sp.Name]; ok {
					layers.add(m, sp.Duration.Seconds())
				}
			}
			layers.add("prefix2org.build_s", t1.Sub(t0).Seconds())
			layers.add("prefix2org.save_v2_s", t2.Sub(t1b).Seconds())
			layers.add("prefix2org.open_view_ms", t3.Sub(t2).Seconds()*1e3)
			layers.add("prefix2org.build_allocs", float64(after.Mallocs-before.Mallocs))
			layers.add("prefix2org.build_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			layers.add("prefix2org.snapshot_mb", float64(len(data))/(1<<20))
		}
		return lat, nil
	}

	// Set-up: a batch build has none of its own, so a warm-up op (page
	// cache, heap growth) stands in, and is timed like the rest.
	lat, err := op("build-full.setup")
	if err != nil {
		return nil, err
	}
	rep.SetupS = lat.Seconds()
	for start := time.Now(); time.Since(start) < c.dur; {
		lat, err := op("build-full.op")
		if err != nil {
			return nil, err
		}
		rep.Ops = append(rep.Ops, lat.Seconds())
	}

	if tr != nil {
		if c.probes {
			if err := codecLadder(ctx, tr, layers, last, s0, snap, probeRuns(c.quick)); err != nil {
				return nil, err
			}
		}
		layers.medians(rep.Layers)
		rep.Spans = tr.spans
	}
	return rep, nil
}

func probeRuns(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// codecLadder times the codec and RTR layers no workload exercises on
// its own: the eager v2 decode, the two older writers, full
// materialization of a view, and the VRP derivation and sync.
func codecLadder(ctx context.Context, tr *tracer, layers layerSamples, ds *prefix2org.Dataset, dir, snap string, n int) error {
	id, end := tr.begin("codec-ladder", 0)
	defer end()
	timed := func(metric, spanName string, scale float64, fn func() error) error {
		return layers.timeIt(metric, n, scale, func() error {
			_, end := tr.begin(spanName, id)
			defer end()
			return fn()
		})
	}
	if err := timed("prefix2org.load_v2_eager_s", "prefix2org.LoadFile", 1, func() error {
		_, err := prefix2org.LoadFile(ctx, snap)
		return err
	}); err != nil {
		return err
	}
	if err := timed("prefix2org.save_v1_s", "prefix2org.SaveBinaryV1", 1, func() error { return ds.SaveBinaryV1(io.Discard) }); err != nil {
		return err
	}
	if err := timed("prefix2org.save_json_s", "prefix2org.Save", 1, func() error { return ds.Save(io.Discard) }); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		view, err := prefix2org.OpenSnapshotFile(ctx, snap, prefix2org.OpenOptions{Mmap: true})
		if err != nil {
			return err
		}
		err = layers.timeIt("prefix2org.materialize_all_s", 1, 1, func() error {
			_, end := tr.begin("prefix2org.MaterializeAll", id)
			defer end()
			view.MaterializeAll()
			return nil
		})
		view.Close()
		if err != nil {
			return err
		}
	}

	repo, err := rpki.LoadDir(ctx, dir)
	if err != nil {
		return err
	}
	var vrps []rtr.VRP
	if err := timed("rtr.vrps_from_repo_ms", "rtr.VRPsFromRepository", 1e3, func() error {
		vrps = rtr.VRPsFromRepository(repo)
		return nil
	}); err != nil {
		return err
	}
	layers.add("rtr.vrps", float64(len(vrps)))
	srv := rtr.NewServer(repo)
	addr, err := srv.Start(ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := &rtr.Client{Addr: addr, Timeout: 30 * time.Second}
	return timed("rtr.sync_ms", "rtr.Client.Sync", 1e3, func() error {
		got, _, err := client.Sync()
		if err == nil && len(got) != len(vrps) {
			err = fmt.Errorf("synced %d VRPs, repository has %d", len(got), len(vrps))
		}
		return err
	})
}

// childReloadDelta chains BuildDelta around the step-directory cycle
// s0 -> s1 -> s2 -> s0. One op is one full cycle — a sum over the three
// step kinds, so the bimodal step times do not make the median jump.
func childReloadDelta(ctx context.Context, c childConfig) (*childReport, error) {
	dirs := []string{filepath.Join(c.work, "s0"), filepath.Join(c.work, "s1"), filepath.Join(c.work, "s2")}
	opts := prefix2org.Options{Incremental: true}
	tr := newTracer(c.trace)
	rep := &childReport{Layers: map[string]float64{}}
	layers := layerSamples{}

	// Set-up is what a delta chain needs before its first step: the
	// full build that retains the delta state. State a later change
	// adds to make steps faster is paid for here.
	_, end := tr.begin("prefix2org.BuildFromDir(incremental)", 0)
	t := time.Now()
	prev, err := prefix2org.BuildFromDir(ctx, dirs[0], opts)
	end()
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t).Seconds()
	layers.add("prefix2org.build_incremental_s", rep.SetupS)
	var seen [3][32]byte
	if seen[0], err = snapshotSum(prev); err != nil {
		return nil, err
	}

	pos := 0
	var counts struct{ affected, reused, changed int }
	for start, cycle := time.Now(), 0; time.Since(start) < c.dur; cycle++ {
		id, end := tr.begin("reload-delta.cycle", 0)
		var lat time.Duration
		ok := true
		for range dirs {
			target := (pos + 1) % len(dirs)
			kind := stepKinds[(target+2)%len(dirs)]
			t0 := time.Now()
			res, err := prefix2org.BuildDelta(ctx, prev, dirs[target], opts)
			t1 := time.Now()
			if err != nil {
				end()
				return nil, fmt.Errorf("BuildDelta to s%d: %w", target, err)
			}
			lat += t1.Sub(t0)
			tr.add("prefix2org.BuildDelta("+kind+")", id, 0, t0, t1)
			layers.add("delta."+kind+"_s", t1.Sub(t0).Seconds())
			if cycle == 0 {
				counts.affected += res.Affected
				counts.reused += res.Reused
				counts.changed += len(res.ChangedFiles)
			}

			// Untimed checks: the step accounts for every record, and
			// landing on a directory again reproduces its bytes.
			if n := res.Dataset.NumRecords(); res.Affected+res.Reused != n || len(res.ChangedFiles) == 0 {
				ok = false
				rep.Problems = append(rep.Problems, fmt.Sprintf("step to s%d: affected %d + reused %d != %d records (changed files %d)",
					target, res.Affected, res.Reused, n, len(res.ChangedFiles)))
			}
			sum, err := snapshotSum(res.Dataset)
			if err != nil {
				end()
				return nil, err
			}
			if seen[target] == ([32]byte{}) {
				seen[target] = sum
			} else if seen[target] != sum {
				ok = false
				rep.Problems = append(rep.Problems, fmt.Sprintf("step to s%d: snapshot differs from the previous visit", target))
			}
			prev, pos = res.Dataset, target
		}
		end()
		rep.Attempted++
		if !ok {
			rep.Failed++
		}
		rep.Ops = append(rep.Ops, lat.Seconds())
	}

	// The chain's last snapshot must equal a full build of the same
	// directory, byte for byte (pos is 0 again after whole cycles, and
	// the s1/s2 visits are tied to it through the cycle).
	tFull := time.Now()
	full, err := prefix2org.BuildFromDir(ctx, dirs[pos], prefix2org.Options{})
	if err != nil {
		return nil, err
	}
	fullTime := time.Since(tFull)
	fullSum, err := snapshotSum(full)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if fullSum != seen[pos] {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("delta chain at s%d differs from a full build", pos))
	}

	if tr != nil && c.probes {
		n := probeRuns(c.quick)
		if err := layers.timeIt("prefix2org.manifest_s", n, 1, func() error {
			_, end := tr.begin("prefix2org.BuildManifest", 0)
			defer end()
			_, err := prefix2org.BuildManifest(ctx, dirs[pos])
			return err
		}); err != nil {
			return nil, err
		}
		if err := layers.timeIt("delta.noop_s", n, 1, func() error {
			_, end := tr.begin("prefix2org.BuildDelta(noop)", 0)
			defer end()
			if _, err := prefix2org.BuildDelta(ctx, prev, dirs[pos], opts); !errors.Is(err, prefix2org.ErrNoChange) {
				return fmt.Errorf("unchanged directory: err = %v, want ErrNoChange", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		layers.medians(rep.Layers)
		rep.Layers["delta.affected"] = float64(counts.affected)
		rep.Layers["delta.reused"] = float64(counts.reused)
		rep.Layers["delta.changed_files"] = float64(counts.changed)
		rep.Layers["delta.vs_full_ratio"] = median(rep.Ops) / (float64(len(dirs)) * fullTime.Seconds())
		rep.Spans = tr.spans
	}
	return rep, nil
}
