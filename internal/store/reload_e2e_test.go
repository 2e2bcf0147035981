package store_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whoisd"
)

// ask runs one WHOIS query against addr and returns the full response.
func ask(t *testing.T, addr, q string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(q + "\r\n")); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// divergingQuery finds a prefix whose whois answer differs between the
// two datasets — evidence the evolved world actually changed ownership.
func divergingQuery(t *testing.T, ds1, ds2 *prefix2org.Dataset) string {
	t.Helper()
	o1, o2 := whoisd.NewStatic(ds1), whoisd.NewStatic(ds2)
	for i := range ds1.Records {
		q := ds1.Records[i].Prefix.String()
		if o1.Answer(q) != o2.Answer(q) {
			return q
		}
	}
	t.Fatal("evolved world produced no diverging whois answer")
	return ""
}

// TestHotReloadEndToEnd is the full serving-layer exercise: build a
// world, serve it over WHOIS, evolve the world on disk, reload, and
// check that whois answers change, in-flight queries never drop, and a
// failed rebuild leaves the old snapshot serving.
func TestHotReloadEndToEnd(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	src := store.DirSource(dir, prefix2org.Options{})
	snap1, err := src.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(snap1)
	// Long MinBackoff keeps the automatic retry timer out of the way; the
	// test drives every reload explicitly.
	rel := store.NewReloader(st, src, store.ReloaderConfig{MinBackoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	wsrv := whoisd.New(st)
	whoisAddr, err := wsrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wsrv.Close()

	// Evolve the world on disk: transfers, new delegations and RPKI
	// adopters change the dataset. Evolve returns a fresh World; the
	// original keeps the old artifacts.
	w2, err := w.Evolve(synth.EvolveOptions{
		Seed:           7,
		Transfers:      6,
		NewDelegations: 3,
		NewAdopters:    2,
		MonthsLater:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	// Keep queries in flight across the swap; any dial/read failure or
	// empty answer counts as a dropped query.
	var dropped atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	probe := st.Current().Dataset.Records[0].Prefix.String()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.DialTimeout("tcp", whoisAddr, 5*time.Second)
				if err != nil {
					dropped.Add(1)
					continue
				}
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				_, werr := conn.Write([]byte(probe + "\r\n"))
				out, rerr := io.ReadAll(conn)
				conn.Close()
				if werr != nil || rerr != nil || len(out) == 0 {
					dropped.Add(1)
				}
			}
		}()
	}

	if err := rel.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d in-flight queries dropped across the swap", n)
	}

	snap2 := st.Current()
	if snap2.Version != snap1.Version+1 {
		t.Errorf("version after reload = %d, want %d", snap2.Version, snap1.Version+1)
	}

	// WHOIS answers must reflect the new world over the live listener.
	q := divergingQuery(t, snap1.Dataset, snap2.Dataset)
	got := ask(t, whoisAddr, q)
	want := whoisd.NewStatic(snap2.Dataset).Answer(q)
	if got != want {
		t.Errorf("live answer for %s still pre-reload:\n got: %q\nwant: %q", q, got, want)
	}

	// A failing rebuild must leave the current snapshot serving and count
	// a failure. Corrupting the RPKI snapshot makes the build error
	// (missing files merely degrade; malformed ones are hard errors).
	failuresBefore := obs.Default().Counter("store_reload_failures_total").Value()
	rpkiPath := filepath.Join(dir, rpki.SnapshotFile)
	good, err := os.ReadFile(rpkiPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rpkiPath, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(ctx); err == nil {
		t.Error("reload of broken data dir unexpectedly succeeded")
	}
	if cur := st.Current(); cur != snap2 {
		t.Error("failed reload replaced the serving snapshot")
	}
	if d := obs.Default().Counter("store_reload_failures_total").Value() - failuresBefore; d != 1 {
		t.Errorf("reload_failures delta = %d, want 1", d)
	}
	if got := ask(t, whoisAddr, q); got != want {
		t.Errorf("stale-serving answer changed after failed reload: %q", got)
	}

	// Restoring the file recovers on the next reload.
	if err := os.WriteFile(rpkiPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Version; got != snap2.Version+1 {
		t.Errorf("version after recovery = %d, want %d", got, snap2.Version+1)
	}
}

// TestDirSourceDeltaLeavesOneWorker pins that a delta reload, which
// always runs beside live queries, builds with one worker fewer than
// GOMAXPROCS unless the caller chose a worker count, while the full
// build (the startup build, nothing served yet) keeps the default.
func TestDirSourceDeltaLeavesOneWorker(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.Evolve(synth.EvolveOptions{Seed: 7, Transfers: 6, NewDelegations: 3})
	if err != nil {
		t.Fatal(err)
	}
	resolveWorkers := func(ds *prefix2org.Dataset) int {
		t.Helper()
		span, ok := ds.Trace.Span("resolve")
		if !ok {
			t.Fatal("trace has no resolve span")
		}
		return span.Workers
	}
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		workers, wantFull, wantDelta int
	}{
		{0, procs, max(1, procs-1)},
		{3, 3, 3},
	} {
		dir := t.TempDir()
		if err := w.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		src := store.DirSource(dir, prefix2org.Options{Incremental: true, Workers: tc.workers})
		full, err := src.Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := resolveWorkers(full.Dataset); got != tc.wantFull {
			t.Errorf("Workers %d: full build resolved with %d workers, want %d", tc.workers, got, tc.wantFull)
		}
		if err := w2.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		delta, err := src.Delta(context.Background(), full)
		if err != nil || delta == nil {
			t.Fatalf("Workers %d: delta = %v, %v; want a snapshot", tc.workers, delta, err)
		}
		if got := resolveWorkers(delta.Dataset); got != tc.wantDelta {
			t.Errorf("Workers %d: delta reload resolved with %d workers, want %d", tc.workers, got, tc.wantDelta)
		}
	}
}

// TestDeltaReloadAfterLoadError is one fallback-to-full condition on its
// own: an input that fails to load. A real incremental DirSource under a
// Reloader, given a registry file with one malformed line, serves the
// stale snapshot with its version unchanged, counts one delta fallback
// and one reload failure, and publishes no snapshot. Once the directory
// holds a readable (evolved) world, the next reload is a delta again,
// and its dataset is byte-identical to a full build's.
func TestDeltaReloadAfterLoadError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	src := store.DirSource(dir, prefix2org.Options{Incremental: true})
	first, err := src.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(first)
	// No automatic retry of the failed reload lands inside the test.
	rel := store.NewReloader(st, src, store.ReloaderConfig{MinBackoff: time.Hour})
	go rel.Run(ctx)

	reg := obs.Default()
	deltas, fallbacks := reg.Counter("store_delta_reloads_total"), reg.Counter("store_delta_fallbacks_total")
	failures, live := reg.Counter("store_reload_failures_total"), reg.Gauge("store_snapshots_live")
	d0, f0, r0, l0 := deltas.Value(), fallbacks.Value(), failures.Value(), live.Value()

	arin := filepath.Join(dir, "whois", "arin.db")
	raw, err := os.ReadFile(arin)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(arin, append(raw, "\nthis line has no colon\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(ctx); err == nil {
		t.Fatal("reload over a malformed arin.db succeeded")
	}
	if v := st.Current().Version; v != 1 {
		t.Errorf("serving v%d after the failed reload, want the stale v1", v)
	}
	if d, f, r, l := deltas.Value()-d0, fallbacks.Value()-f0, failures.Value()-r0, live.Value()-l0; d != 0 || f != 1 || r != 1 || l != 0 {
		t.Errorf("failed reload moved delta reloads %+d, fallbacks %+d, failures %+d, live snapshots %+v; want 0, 1, 1, 0", d, f, r, l)
	}

	if w, err = w.Evolve(synth.EvolveOptions{Seed: 11, Transfers: 4, NewDelegations: 2, OriginShifts: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d0, f0 = deltas.Value(), fallbacks.Value()
	if err := rel.Reload(ctx); err != nil {
		t.Fatalf("reload over the evolved world: %v", err)
	}
	if v := st.Current().Version; v != 2 {
		t.Errorf("serving v%d after the evolved world's reload, want v2", v)
	}
	if d, f, l := deltas.Value()-d0, fallbacks.Value()-f0, live.Value()-l0; d != 1 || f != 0 || l != 0 {
		t.Errorf("evolved world's reload moved delta reloads %+d, fallbacks %+d, live snapshots %+v; want 1, 0, 0", d, f, l)
	}
	full, err := prefix2org.BuildFromDir(ctx, dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := st.Current().Dataset.SaveBinary(&got); err != nil {
		t.Fatal(err)
	}
	if err := full.SaveBinary(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("the delta after the failed reload differs from a full build: %d bytes vs %d", got.Len(), want.Len())
	}
}

// TestReadersSeeConsistentSnapshotMidSwap hammers the store with swaps
// between two datasets while readers answer queries; every answer must
// match exactly one of the two oracle answers — never a blend. Run under
// -race this is the torn-read check for the serving path.
func TestReadersSeeConsistentSnapshotMidSwap(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds1, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.Evolve(synth.EvolveOptions{Seed: 11, Transfers: 8, MonthsLater: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds2, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := divergingQuery(t, ds1, ds2)
	ans1 := whoisd.NewStatic(ds1).Answer(q)
	ans2 := whoisd.NewStatic(ds2).Answer(q)

	st := store.New(&store.Snapshot{Dataset: ds1})
	srv := whoisd.New(st)
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := srv.Answer(q); got != ans1 && got != ans2 {
					torn.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		// Fresh wrapper each swap: snapshots are immutable once published,
		// so re-publishing the same struct would be a contract violation.
		if i%2 == 0 {
			st.Swap(&store.Snapshot{Dataset: ds2})
		} else {
			st.Swap(&store.Snapshot{Dataset: ds1})
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d answers matched neither snapshot's oracle", n)
	}
}
