// Package daemontest is the test support the daemon skeleton's own
// tests and the two daemon commands' smoke tests share: a synthetic
// world on disk, booting a Spec on ephemeral ports, metric totals read
// off /metrics, and the pinned surfaces (flag set, metric names)
// compared against golden lists captured before the daemons moved onto
// the skeleton.
package daemontest

import (
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// World writes the small synthetic world to a fresh temp directory.
func World(t *testing.T) (*synth.World, string) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return w, dir
}

// Boot starts spec exactly as its main would, on ephemeral query and
// admin ports at log level warn, and closes it when the test ends. f
// names the source (DataDir or Snapshot) and anything else under test.
func Boot(ctx context.Context, t *testing.T, spec daemon.Spec, f daemon.Flags) *daemon.App {
	t.Helper()
	f.Listen, f.MetricsListen, f.LogLevel = "127.0.0.1:0", "127.0.0.1:0", "warn"
	a, err := daemon.Start(ctx, spec, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

// Get fetches one admin-listener path and returns status and body.
func Get(t *testing.T, a *daemon.App, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + a.AdminAddr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// FlagSet renders fs as one "name=default" line per flag in
// flag.VisitAll order.
func FlagSet(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "%s=%s\n", f.Name, f.DefValue) })
	return b.String()
}

// MetricNames renders the sorted set of metric names (labels and the
// values dropped) on a's /metrics page, one per line.
func MetricNames(t *testing.T, a *daemon.App) string {
	t.Helper()
	_, page := Get(t, a, "/metrics")
	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "\n") + "\n"
}

// MetricSum adds up every series of the metric family name on a's
// /metrics page — the bare name and each name{labels...} line — so a
// counter split by label reads as one total.
func MetricSum(t *testing.T, a *daemon.App, name string) float64 {
	t.Helper()
	_, page := Get(t, a, "/metrics")
	var sum float64
	for _, line := range strings.Split(page, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || (line[:i] != name && !strings.HasPrefix(line, name+"{")) {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// Golden compares got against the golden file at path and reports the
// first line that differs.
func Golden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(raw) {
		return
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("%s differs from what was captured before the refactor at line %d:\n  want %q\n  got  %q", path, i+1, want[i], have[i])
			return
		}
	}
	t.Errorf("%s differs from what was captured before the refactor: want %d lines, got %d", path, len(want), len(have))
}

// EvolvingWorld writes the small synthetic world to a fresh temp
// directory and returns it with flip, which rewrites the directory to
// the other of two states — the world, or the world evolved by WHOIS,
// RPKI and routing churn — so each -reload-delta reload after a flip
// swaps.
func EvolvingWorld(t *testing.T) (dir string, flip func()) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	states := [2]string{t.TempDir(), t.TempDir()}
	if err := w.WriteDir(states[0]); err != nil {
		t.Fatal(err)
	}
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 9, Transfers: 3, NewDelegations: 3, NewAdopters: 2, OriginShifts: 5, Revocations: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDir(states[1]); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	next := 0
	flip = func() {
		t.Helper()
		src := states[next]
		next = 1 - next
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(src, path) // path is under src
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, rel), raw, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	flip()
	return dir, flip
}

// Soak boots spec with f and drives reloads through the admin /reload —
// 20, or 6 under -short — while three goroutines query the daemon, each
// query one call of ask against the query listener; every snapshot
// answers some queries before the next reload. flip, when non-nil, runs
// before each reload. It fails the test when what the daemon holds
// grows with the number of reloads:
//   - /metrics has as many lines after the last reload as after reload 5;
//   - the live heap and the goroutine count, after runtime.GC and with
//     the load paused, stay within a bound of their values at reload 5;
//   - once the load stops, only the current snapshot is live
//     (store_snapshots_live is back at its value right after boot: the
//     pre-boot value + 1);
//   - no query fails.
func Soak(ctx context.Context, t *testing.T, spec daemon.Spec, f daemon.Flags, flip func(), ask func(addr string) error) {
	t.Helper()
	reloads := 20
	if testing.Short() {
		reloads = 6
	}
	a := Boot(ctx, t, spec, f)
	atRest := MetricSum(t, a, "store_snapshots_live")

	// The load: three goroutines querying until stop. A query holds
	// pause for reading, so taking it for writing waits out the queries
	// in flight and holds off new ones.
	var (
		pause   sync.RWMutex
		queries atomic.Int64
		errMu   sync.Mutex
		errs    []error
		wg      sync.WaitGroup
	)
	done := make(chan struct{})
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
				pause.RLock()
				err := ask(a.Addr)
				pause.RUnlock()
				queries.Add(1)
				if err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
			}
		}()
	}
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()

	// serve waits until the current snapshot has answered a few queries.
	serve := func() {
		for target, deadline := queries.Load()+3, time.Now().Add(10*time.Second); queries.Load() < target && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	type footprint struct {
		lines, goroutines int
		heap              uint64
	}
	// measure reads the footprint with no query in flight, once only
	// the current snapshot is live again: a front end may release its
	// pin just after the client has read the whole answer.
	measure := func(when string) footprint {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			live := MetricSum(t, a, "store_snapshots_live")
			if live == atRest {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s: store_snapshots_live = %v, want %v (its value after boot: only the current snapshot live)", when, live, atRest)
				break
			}
		}
		_, page := Get(t, a, "/metrics")
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return footprint{lines: strings.Count(page, "\n"), goroutines: runtime.NumGoroutine(), heap: ms.HeapAlloc}
	}

	var at5 footprint
	for i := 1; i <= reloads; i++ {
		serve()
		if flip != nil {
			flip()
		}
		if status, body := Get(t, a, "/reload"); status != http.StatusOK {
			t.Fatalf("reload %d = %d: %s", i, status, body)
		}
		if v := a.Store.Current().Version; v != uint64(i+1) {
			t.Fatalf("reload %d serves snapshot v%d, want v%d: the reload did not swap", i, v, i+1)
		}
		if i == 5 {
			pause.Lock()
			at5 = measure("reload 5")
			pause.Unlock()
		}
	}
	serve()
	stop()
	last := measure("after the last reload")
	t.Logf("%d reloads, %d queries; reload 5 → %d: /metrics %d → %d lines, heap %d → %d KiB, %d → %d goroutines",
		reloads, queries.Load(), reloads, at5.lines, last.lines, at5.heap>>10, last.heap>>10, at5.goroutines, last.goroutines)
	if last.lines != at5.lines {
		t.Errorf("/metrics has %d lines after reload %d, %d after reload 5: the page grows with reloads", last.lines, reloads, at5.lines)
	}
	if last.heap > at5.heap+soakHeapSlack {
		t.Errorf("live heap %d KiB after reload %d, %d KiB after reload 5: more than %d KiB growth",
			last.heap>>10, reloads, at5.heap>>10, soakHeapSlack>>10)
	}
	if last.goroutines > at5.goroutines+soakGoroutineSlack {
		t.Errorf("%d goroutines after reload %d, %d after reload 5: more than %d more",
			last.goroutines, reloads, at5.goroutines, soakGoroutineSlack)
	}
	if n := queries.Load(); n < int64(3*(reloads+1)) {
		t.Errorf("%d queries over %d snapshots, want at least 3 each", n, reloads+1)
	}
	for _, err := range errs {
		t.Errorf("query failed: %v", err)
	}
}

// The growth Soak tolerates between reload 5 and the last reload, each
// well under what one leaked snapshot per reload adds over 15 reloads.
const (
	soakHeapSlack      = 2 << 20
	soakGoroutineSlack = 8
)
