package store

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/diff"
	"github.com/prefix2org/prefix2org/internal/obs"
)

func TestNewAssignsVersionOne(t *testing.T) {
	st := New(&Snapshot{})
	if got := st.Current().Version; got != 1 {
		t.Errorf("initial version = %d, want 1", got)
	}
}

// TestAcquireReleaseIdempotent pins the release contract: only the
// first call of a pin's release drops the reference. Duplicate calls —
// an explicit release followed by a deferred one, say — must neither
// close a snapshot that is still current nor double-close one that has
// been swapped out.
func TestAcquireReleaseIdempotent(t *testing.T) {
	var closed atomic.Int64
	snap := &Snapshot{Closer: func() error { closed.Add(1); return nil }}
	st := New(snap)

	pinned, release := st.Acquire()
	if pinned != snap {
		t.Fatal("Acquire returned a different snapshot")
	}
	release()
	release()
	release()
	if got := closed.Load(); got != 0 {
		t.Fatalf("Closer ran %d times while the snapshot is still current, want 0", got)
	}

	// The store must still hand out working pins on the same snapshot.
	again, release2 := st.Acquire()
	if again != snap {
		t.Fatal("store stopped serving the current snapshot after duplicate releases")
	}
	release2()

	// With every pin dropped, the swap closes the snapshot exactly once.
	st.Swap(&Snapshot{})
	if got := closed.Load(); got != 1 {
		t.Fatalf("Closer ran %d times after the swap, want 1", got)
	}

	// A duplicate release of a long-dead pin stays a no-op.
	release()
	release2()
	if got := closed.Load(); got != 1 {
		t.Fatalf("Closer ran %d times after stale releases, want 1", got)
	}
}

// TestPendingStoreReadiness covers the readiness/liveness split: a
// pending store answers reads (liveness) but reports not-ready — and
// its /healthz serves 503 — until the first real snapshot is installed.
func TestPendingStoreReadiness(t *testing.T) {
	st := NewPending("dir:data")
	if st.Current() == nil {
		t.Fatal("pending store must still serve a placeholder snapshot")
	}
	if st.Current().Version != 0 {
		t.Errorf("placeholder version = %d, want 0", st.Current().Version)
	}
	if st.Ready() {
		t.Error("pending store reports ready before the first snapshot")
	}

	srv := httptest.NewServer(obs.ReadyHandler(st.Ready))
	defer srv.Close()
	get := func() int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != 503 {
		t.Errorf("healthz before first snapshot = %d, want 503", code)
	}

	before := obs.Default().Gauge("store_reload_last_success_unix").Value()
	st.Swap(&Snapshot{Dataset: &prefix2org.Dataset{}})
	if !st.Ready() {
		t.Error("store not ready after installing a real snapshot")
	}
	if got := st.Current().Version; got != 1 {
		t.Errorf("first real snapshot version = %d, want 1", got)
	}
	if code := get(); code != 200 {
		t.Errorf("healthz after first snapshot = %d, want 200", code)
	}
	if after := obs.Default().Gauge("store_reload_last_success_unix").Value(); after <= 0 || after < before {
		t.Errorf("store_reload_last_success_unix = %v, want a recent unix time", after)
	}
}

// TestSwapOfEmptySnapshotNotReady pins that readiness tracks content,
// not swap count: swapping in a data-less snapshot keeps Ready false.
func TestSwapOfEmptySnapshotNotReady(t *testing.T) {
	st := NewPending("dir:data")
	st.Swap(&Snapshot{})
	if st.Ready() {
		t.Error("empty snapshot must not flip readiness")
	}
}

func TestSwapBumpsVersionAndReturnsOld(t *testing.T) {
	st := New(&Snapshot{})
	first := st.Current()
	old := st.Swap(&Snapshot{})
	if old != first {
		t.Error("Swap did not return the previous snapshot")
	}
	if got := st.Current().Version; got != 2 {
		t.Errorf("version after swap = %d, want 2", got)
	}
}

func TestSubscribeNotifiesAndCancels(t *testing.T) {
	st := New(&Snapshot{})
	var got []uint64
	cancel := st.Subscribe(func(s *Snapshot) { got = append(got, s.Version) })
	st.Swap(&Snapshot{})
	st.Swap(&Snapshot{})
	cancel()
	st.Swap(&Snapshot{})
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("subscriber saw versions %v, want [2 3]", got)
	}
}

func TestSubscribersRunInSubscriptionOrder(t *testing.T) {
	st := New(&Snapshot{})
	var order []string
	st.Subscribe(func(*Snapshot) { order = append(order, "a") })
	st.Subscribe(func(*Snapshot) { order = append(order, "b") })
	st.Swap(&Snapshot{})
	if strings.Join(order, "") != "ab" {
		t.Errorf("notification order = %v, want [a b]", order)
	}
}

// TestConcurrentReadersDuringSwaps is the torn-state check: readers must
// always observe a snapshot whose version matches its payload, no matter
// how many swaps race with them. Run under -race this also proves the
// read path is synchronization-free but sound.
func TestConcurrentReadersDuringSwaps(t *testing.T) {
	st := New(&Snapshot{})
	stop := make(chan struct{})
	var bad atomic.Int64
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
				snap := st.Current()
				if snap.Source != "" && snap.Source != fmt.Sprintf("v=%d", snap.Version) {
					bad.Add(1)
				}
			}
		}()
	}
	for v := uint64(2); v < 500; v++ {
		// Source encodes the version the snapshot will receive; a reader
		// seeing a mismatch caught a torn snapshot.
		st.Swap(&Snapshot{Source: fmt.Sprintf("v=%d", v)})
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d torn snapshot observations", n)
	}
}

func TestReloaderSwapsOnReload(t *testing.T) {
	st := New(&Snapshot{})
	var builds atomic.Int64
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		builds.Add(1)
		return &Snapshot{}, nil
	}}, ReloaderConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)
	if err := rel.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Version; got != 2 {
		t.Errorf("version after reload = %d, want 2", got)
	}
	if builds.Load() != 1 {
		t.Errorf("builds = %d, want 1", builds.Load())
	}
}

func TestReloaderServeStaleOnFailureThenBackoffRetry(t *testing.T) {
	st := New(&Snapshot{Source: "initial"})
	failuresBefore := obs.Default().Counter("store_reload_failures_total").Value()
	var builds atomic.Int64
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		// Fail the first two builds; the backoff retry must eventually
		// push the third through without further triggers.
		if builds.Add(1) <= 2 {
			return nil, errors.New("corpus unavailable")
		}
		return &Snapshot{Source: "fresh"}, nil
	}}, ReloaderConfig{MinBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	if err := rel.Reload(ctx); err == nil {
		t.Fatal("first reload unexpectedly succeeded")
	}
	// Serve-stale: the failed build must leave the initial snapshot up.
	if got := st.Current().Source; got != "initial" {
		t.Errorf("after failed reload serving %q, want initial snapshot", got)
	}
	if d := obs.Default().Counter("store_reload_failures_total").Value() - failuresBefore; d < 1 {
		t.Errorf("reload_failures delta = %d, want >= 1", d)
	}
	// The retry schedule must recover on its own.
	deadline := time.Now().Add(5 * time.Second)
	for st.Current().Source != "fresh" {
		if time.Now().After(deadline) {
			t.Fatalf("backoff retry never recovered; %d builds, serving %q",
				builds.Load(), st.Current().Source)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReloaderPeriodicInterval(t *testing.T) {
	st := New(&Snapshot{})
	var builds atomic.Int64
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		builds.Add(1)
		return &Snapshot{}, nil
	}}, ReloaderConfig{Interval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for builds.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("interval reloads did not happen (builds=%d)", builds.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReloadHandler(t *testing.T) {
	st := New(&Snapshot{})
	var fail atomic.Bool
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		if fail.Load() {
			return nil, errors.New("broken dir")
		}
		return &Snapshot{Source: "dir:x"}, nil
	}}, ReloaderConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	srv := httptest.NewServer(rel.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "v2") {
		t.Errorf("reload = %d %q, want 200 mentioning v2", resp.StatusCode, body[:n])
	}

	fail.Store(true)
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 500 || !strings.Contains(string(body[:n]), "still serving snapshot v2") {
		t.Errorf("failed reload = %d %q, want 500 naming the stale version", resp.StatusCode, body[:n])
	}
}

// TestReloaderDeltaPaths covers the three delta outcomes of a reload:
// a no-op (unchanged inputs keep the current snapshot serving, no swap,
// no subscriber churn), a successful delta swap (the full builder never
// runs), and a delta failure falling back to the full build.
func TestReloaderDeltaPaths(t *testing.T) {
	st := New(&Snapshot{Source: "initial", Dataset: &prefix2org.Dataset{}})
	var notifies atomic.Int64
	st.Subscribe(func(*Snapshot) { notifies.Add(1) })
	var fullBuilds atomic.Int64
	var mode atomic.Value // "noop" | "delta" | "error"
	mode.Store("noop")
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		fullBuilds.Add(1)
		return &Snapshot{Source: "full", Dataset: &prefix2org.Dataset{}}, nil
	}, Delta: func(ctx context.Context, prev *Snapshot) (*Snapshot, error) {
		switch mode.Load() {
		case "noop":
			return nil, nil
		case "delta":
			return &Snapshot{Source: "delta", Dataset: &prefix2org.Dataset{}, Changes: &diff.Changeset{}}, nil
		default:
			return nil, errors.New("splice failed")
		}
	}}, ReloaderConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	// No-op: inputs unchanged, the reload succeeds without swapping.
	noopBefore := mReloadsNoop.Value()
	if err := rel.Reload(ctx); err != nil {
		t.Fatalf("no-op reload: %v", err)
	}
	if got := st.Current().Version; got != 1 {
		t.Errorf("version after no-op reload = %d, want 1 (no swap)", got)
	}
	if n := notifies.Load(); n != 0 {
		t.Errorf("no-op reload notified %d subscribers, want 0", n)
	}
	if d := mReloadsNoop.Value() - noopBefore; d != 1 {
		t.Errorf("noop reload counter moved by %d, want 1", d)
	}

	// Delta: the incremental snapshot swaps in; the full builder stays cold.
	mode.Store("delta")
	deltaBefore := mDeltaReloads.Value()
	if err := rel.Reload(ctx); err != nil {
		t.Fatalf("delta reload: %v", err)
	}
	if got := st.Current().Source; got != "delta" {
		t.Errorf("serving %q after delta reload, want delta snapshot", got)
	}
	if fullBuilds.Load() != 0 {
		t.Errorf("full builder ran %d times during delta reloads, want 0", fullBuilds.Load())
	}
	if d := mDeltaReloads.Value() - deltaBefore; d != 1 {
		t.Errorf("delta reload counter moved by %d, want 1", d)
	}

	// Failure: the delta error downgrades to the full build.
	mode.Store("error")
	fallbackBefore := mDeltaFallbacks.Value()
	if err := rel.Reload(ctx); err != nil {
		t.Fatalf("fallback reload: %v", err)
	}
	if got := st.Current().Source; got != "full" {
		t.Errorf("serving %q after delta failure, want full rebuild", got)
	}
	if fullBuilds.Load() != 1 {
		t.Errorf("full builder ran %d times, want 1", fullBuilds.Load())
	}
	if d := mDeltaFallbacks.Value() - fallbackBefore; d != 1 {
		t.Errorf("delta fallback counter moved by %d, want 1", d)
	}
}

// TestReloaderDeltaSkipsPlaceholder pins that the delta builder is not
// consulted while the store still serves the pending placeholder: the
// first build of a daemon's lifetime is always the full one, and it is
// not a "fallback".
func TestReloaderDeltaSkipsPlaceholder(t *testing.T) {
	st := NewPending("dir:data")
	var deltaCalls atomic.Int64
	rel := NewReloader(st, Source{Build: func(ctx context.Context) (*Snapshot, error) {
		return &Snapshot{Source: "full", Dataset: &prefix2org.Dataset{}}, nil
	}, Delta: func(ctx context.Context, prev *Snapshot) (*Snapshot, error) {
		deltaCalls.Add(1)
		return nil, nil
	}}, ReloaderConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	fallbackBefore := mDeltaFallbacks.Value()
	if err := rel.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if deltaCalls.Load() != 0 {
		t.Errorf("delta builder ran %d times against the placeholder, want 0", deltaCalls.Load())
	}
	if got := st.Current().Source; got != "full" {
		t.Errorf("serving %q, want the full build", got)
	}
	if d := mDeltaFallbacks.Value() - fallbackBefore; d != 0 {
		t.Errorf("placeholder reload counted %d delta fallbacks, want 0", d)
	}
	// With a real snapshot installed, the delta path engages.
	if err := rel.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if deltaCalls.Load() != 1 {
		t.Errorf("delta builder ran %d times after the first snapshot, want 1", deltaCalls.Load())
	}
}
