package prefix2org

import (
	"context"
	"reflect"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

func TestBuildReturnsCtxErrWhenCancelled(t *testing.T) {
	db, tbl, repo, asd := figure1World(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, db, tbl, repo, asd, nil, Options{}); err != context.Canceled {
		t.Errorf("Build with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestBuildFromDirReturnsCtxErrWhenCancelled(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildFromDir(ctx, dir, Options{}); err != context.Canceled {
		t.Errorf("BuildFromDir with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestBuildTraceStages(t *testing.T) {
	db, tbl, repo, asd := figure1World(t)
	ds, err := Build(context.Background(), db, tbl, repo, asd, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trace == nil {
		t.Fatal("Dataset.Trace is nil")
	}
	for _, stage := range []string{"flatten-whois", "resolve", "clean-names", "cluster", "stats"} {
		s, ok := ds.Trace.Span(stage)
		if !ok {
			t.Errorf("stage %q missing from trace", stage)
			continue
		}
		if s.Duration <= 0 {
			t.Errorf("stage %q has zero duration", stage)
		}
	}
	s, _ := ds.Trace.Span("resolve")
	if got := s.Count("routed"); got != 4 {
		t.Errorf("resolve routed = %d, want 4", got)
	}
	if got := s.Count("mapped"); got != int64(len(ds.Records)) {
		t.Errorf("resolve mapped = %d, want %d", got, len(ds.Records))
	}
	if s.Count("mapped")+s.Count("unmapped") != s.Count("routed") {
		t.Errorf("mapped(%d)+unmapped(%d) != routed(%d)",
			s.Count("mapped"), s.Count("unmapped"), s.Count("routed"))
	}
}

func TestBuildFromDirTraceOnSyntheticDataset(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := BuildFromDir(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trace == nil {
		t.Fatal("Dataset.Trace is nil")
	}
	stages := []string{
		"load-whois", "load-bgp", "load-rpki", "load-as2org",
		"verify-delegated", "load-arin-legacy",
		"flatten-whois", "resolve", "clean-names", "cluster", "stats",
	}
	for _, stage := range stages {
		s, ok := ds.Trace.Span(stage)
		if !ok {
			t.Errorf("stage %q missing from trace", stage)
			continue
		}
		if s.Duration <= 0 {
			t.Errorf("stage %q has zero duration", stage)
		}
	}
	// Drop-count cross-checks against the dataset's own accounting.
	resolve, _ := ds.Trace.Span("resolve")
	if got, want := resolve.Count("unmapped"), int64(ds.Stats.Unmapped); got != want {
		t.Errorf("resolve unmapped = %d, want Stats.Unmapped = %d", got, want)
	}
	if got, want := resolve.Count("mapped"), int64(len(ds.Records)); got != want {
		t.Errorf("resolve mapped = %d, want %d records", got, want)
	}
	if resolve.Count("mapped")+resolve.Count("unmapped") != resolve.Count("routed") {
		t.Error("resolve counts do not add up")
	}
	flatten, _ := ds.Trace.Span("flatten-whois")
	if flatten.Count("records") <= 0 || flatten.Count("entries") <= 0 {
		t.Errorf("flatten counts: records=%d entries=%d",
			flatten.Count("records"), flatten.Count("entries"))
	}
	if flatten.Count("deduped") < 0 {
		t.Errorf("negative dedup count %d", flatten.Count("deduped"))
	}
	cl, _ := ds.Trace.Span("cluster")
	if got, want := cl.Count("clusters"), int64(len(ds.Clusters)); got != want {
		t.Errorf("cluster count = %d, want %d", got, want)
	}
	// load-bgp's filter accounting must agree with the resolve stage.
	loadBGP, _ := ds.Trace.Span("load-bgp")
	if loadBGP.Count("specificity-filtered") != resolve.Count("specificity-filtered") {
		t.Errorf("specificity-filtered disagrees: load=%d resolve=%d",
			loadBGP.Count("specificity-filtered"), resolve.Count("specificity-filtered"))
	}
	if loadBGP.Count("prefixes")-loadBGP.Count("specificity-filtered") != resolve.Count("routed") {
		t.Errorf("prefixes(%d) - filtered(%d) != routed(%d)",
			loadBGP.Count("prefixes"), loadBGP.Count("specificity-filtered"), resolve.Count("routed"))
	}
}

func TestBuildCancelledMidResolve(t *testing.T) {
	// Cancel after the first pass-1 context check has already passed:
	// the periodic in-pass check must still abort the build.
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel concurrently with the build; whichever stage is running
		// when the flag lands, the build must return context.Canceled.
		cancel()
		close(done)
	}()
	_, err = BuildFromDir(ctx, dir, Options{})
	<-done
	if err != nil && err != context.Canceled {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

// TestFinishTraceCounts reads the finish tail's reuse off the trace: a
// full build traces every Direct Owner name and builds every cluster,
// reusing none; a BGP-only delta reuses more clusters than it rebuilds.
// The counts are the same at every worker count.
func TestFinishTraceCounts(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	bgpDir := t.TempDir()
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 5, OriginShifts: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDir(bgpDir); err != nil {
		t.Fatal(err)
	}
	counts := func(ds *Dataset) map[string]int64 {
		out := map[string]int64{}
		for _, stage := range []string{"clean-names", "cluster"} {
			s, ok := ds.Trace.Span(stage)
			if !ok {
				t.Fatalf("stage %q missing from trace", stage)
			}
			for _, k := range s.Counts() {
				out[stage+"/"+k] = s.Count(k)
			}
		}
		return out
	}
	var wantFull, wantDelta map[string]int64
	for _, workers := range []int{1, 2, 8} {
		opts := Options{Workers: workers, Incremental: true}
		full, err := BuildFromDir(context.Background(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BuildDelta(context.Background(), full, bgpDir, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, d := counts(full), counts(res.Dataset)
		if wantFull == nil {
			wantFull, wantDelta = f, d
			if f["cluster/components-rebuilt"] != int64(len(full.Clusters)) || f["cluster/clusters-reused"] != 0 {
				t.Errorf("full build: %d components rebuilt, %d clusters reused; want all %d and none", f["cluster/components-rebuilt"], f["cluster/clusters-reused"], len(full.Clusters))
			}
			if got, want := f["clean-names/names-retraced"], int64(full.Stats.NameCleaning.Original); got != want {
				t.Errorf("full build: %d names traced, want every one of %d", got, want)
			}
			if d["cluster/clusters-reused"] <= d["cluster/components-rebuilt"] {
				t.Errorf("BGP-only delta: %d clusters reused, %d rebuilt; want more reused", d["cluster/clusters-reused"], d["cluster/components-rebuilt"])
			}
			t.Logf("full build %v; BGP-only delta %v", f, d)
			continue
		}
		if !reflect.DeepEqual(f, wantFull) || !reflect.DeepEqual(d, wantDelta) {
			t.Errorf("Workers=%d: counts full %v, delta %v; at one worker %v, %v", workers, f, d, wantFull, wantDelta)
		}
	}
}
