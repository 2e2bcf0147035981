package daemon_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// fakeFront is a front end that binds nothing: it records the order the
// skeleton drives it in, and can hold Start open or fail it.
type fakeFront struct {
	entered  chan struct{} // closed when Start is entered
	release  chan struct{} // Start returns once this is closed
	startErr error
	closed   chan struct{}
}

func newFake() *fakeFront {
	f := &fakeFront{entered: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
	close(f.release) // by default Start does not block
	return f
}

func (f *fakeFront) Start(ctx context.Context, addr string) (string, error) {
	close(f.entered)
	<-f.release
	return addr, f.startErr
}

func (f *fakeFront) Close() error {
	close(f.closed)
	return nil
}

var fakeTelemetry = obs.NewQueryTelemetry(obs.QueryTelemetryConfig{Logger: obs.Logger("fake")})

// datasetSpec is the daemon shape over one fake.
func datasetSpec(f *fakeFront) daemon.Spec {
	return daemon.Spec{Name: "fake-dataset", Listen: "127.0.0.1:0", Telemetry: fakeTelemetry,
		Dataset: func(*store.Store) daemon.FrontEnd { return f }}
}

func TestStartRejectsBadLevel(t *testing.T) {
	_, dir := daemontest.World(t)
	if _, err := daemon.Start(context.Background(), datasetSpec(newFake()), daemon.Flags{DataDir: dir, LogLevel: "loud"}); err == nil {
		t.Error("bad log level accepted")
	}
}

// TestStartRejectsBadSources is the flag validation the mains used to
// repeat before calling start.
func TestStartRejectsBadSources(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  daemon.Spec
		flags daemon.Flags
		want  string
	}{
		{"neither", datasetSpec(newFake()), daemon.Flags{}, "exactly one of -data or -snapshot"},
		{"both", datasetSpec(newFake()), daemon.Flags{DataDir: "d", Snapshot: "s"}, "exactly one of -data or -snapshot"},
		{"delta on a snapshot", datasetSpec(newFake()), daemon.Flags{Snapshot: "s", ReloadDelta: true}, "-reload-delta requires -data"},
	} {
		tc.flags.LogLevel = "warn"
		_, err := daemon.Start(context.Background(), tc.spec, tc.flags)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestStartSnapshotMode serves a pre-built snapshot file in every
// -snapshot shape: JSON lines and v2 binary, eager and mmap'd.
func TestStartSnapshotMode(t *testing.T) {
	_, dir := daemontest.World(t)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		mmap bool
	}{{"snap.jsonl", false}, {"snap.p2o", false}, {"snap.p2o", true}} {
		path := filepath.Join(t.TempDir(), tc.file)
		if err := ds.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		front := newFake()
		a := daemontest.Boot(context.Background(), t, datasetSpec(front), daemon.Flags{Snapshot: path, SnapshotMmap: tc.mmap})
		snap := a.Store.Current()
		if snap.Version != 1 || snap.Dataset.NumRecords() != ds.NumRecords() {
			t.Errorf("%s mmap=%v: serving %s, want v1 with %d records",
				tc.file, tc.mmap, snap.Describe(), ds.NumRecords())
		}
		if lazy := snap.Dataset.Lazy(); lazy != (tc.file == "snap.p2o") {
			t.Errorf("%s mmap=%v: view-backed = %v", tc.file, tc.mmap, lazy)
		}
		if a.Addr == "" {
			t.Errorf("%s: query listener not started", tc.file)
		}
	}
}

// TestAdminSurface checks the admin routes every daemon mounts and the
// ordered shutdown: the front end is closed by App.Close.
func TestAdminSurface(t *testing.T) {
	_, dir := daemontest.World(t)
	front := newFake()
	a, err := daemon.Start(context.Background(), datasetSpec(front),
		daemon.Flags{DataDir: dir, Listen: "127.0.0.1:0", MetricsListen: "127.0.0.1:0", LogLevel: "warn"})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/queries"} {
		if status, body := daemontest.Get(t, a, path); status != 200 {
			t.Errorf("GET %s = %d: %s", path, status, body)
		} else if path == "/metrics" && !strings.Contains(body, "store_snapshot_version 1") {
			t.Errorf("/metrics does not report snapshot version 1:\n%s", body)
		}
	}
	a.Close()
	select {
	case <-front.closed:
	default:
		t.Error("App.Close did not close the front end")
	}
	if _, err := net.DialTimeout("tcp", a.AdminAddr, time.Second); err == nil {
		t.Error("admin listener still accepting after Close")
	}
}

// TestReloadEndpoint exercises the admin /reload wiring, full and
// incremental: an untouched directory reloads to a new
// version (full) or not at all (-reload-delta), a rewritten one swaps —
// by delta, without a fallback, when asked to — and a broken one leaves
// the stale snapshot serving.
func TestReloadEndpoint(t *testing.T) {
	counter := func(name string) int64 { return obs.Default().Counter(name).Value() }
	for _, tc := range []struct {
		name  string
		delta bool
	}{
		{"dataset full", false},
		{"dataset delta", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, dir := daemontest.World(t)
			a := daemontest.Boot(context.Background(), t, datasetSpec(newFake()), daemon.Flags{DataDir: dir, ReloadDelta: tc.delta})
			reload := func(wantStatus int) {
				t.Helper()
				if status, body := daemontest.Get(t, a, "/reload"); status != wantStatus {
					t.Fatalf("GET /reload = %d, want %d: %s", status, wantStatus, body)
				}
			}
			version := func() uint64 { return a.Store.Current().Version }

			v := version()
			noops := counter("store_reloads_noop_total")
			reload(200)
			if tc.delta {
				if version() != v || counter("store_reloads_noop_total") != noops+1 {
					t.Errorf("unchanged inputs: version %d -> %d, noops +%d; want a no-op",
						v, version(), counter("store_reloads_noop_total")-noops)
				}
			} else if version() != v+1 {
				t.Errorf("version after /reload = %d, want %d", version(), v+1)
			}

			w2, err := w.Evolve(synth.EvolveOptions{Seed: 3, Transfers: 4, NewAdopters: 2, MonthsLater: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			v = version()
			deltas, fallbacks := counter("store_delta_reloads_total"), counter("store_delta_fallbacks_total")
			reload(200)
			if version() != v+1 {
				t.Errorf("version after rewriting the directory = %d, want %d", version(), v+1)
			}
			if tc.delta {
				if counter("store_delta_reloads_total") != deltas+1 || counter("store_delta_fallbacks_total") != fallbacks {
					t.Errorf("delta reloads +%d, fallbacks +%d; want +1, +0",
						counter("store_delta_reloads_total")-deltas, counter("store_delta_fallbacks_total")-fallbacks)
				}
				if cs := a.Store.Current().Changes; cs == nil || cs.Empty() {
					t.Errorf("delta snapshot changeset = %+v, want the changes", cs)
				}
			}

			if err := writeBroken(dir); err != nil {
				t.Fatal(err)
			}
			v = version()
			reload(500)
			if version() != v {
				t.Errorf("failed reload moved the version %d -> %d", v, version())
			}
		})
	}
}

// TestReadinessFollowsListener is the readiness invariant: /healthz
// answers 503 until the front end's Start has returned, which is before
// the first build.
func TestReadinessFollowsListener(t *testing.T) {
	t.Run("dataset", func(t *testing.T) {
		_, dir := daemontest.World(t)
		front := newFake()
		front.release = make(chan struct{}) // hold Start open
		admin := freeAddr(t)

		type started struct {
			app *daemon.App
			err error
		}
		done := make(chan started, 1)
		go func() {
			a, err := daemon.Start(context.Background(), datasetSpec(front),
				daemon.Flags{DataDir: dir, Listen: "127.0.0.1:0", MetricsListen: admin, LogLevel: "warn"})
			done <- started{a, err}
		}()
		select {
		case <-front.entered:
		case s := <-done:
			t.Fatalf("Start returned before the front end was started: %v", s.err)
		case <-time.After(30 * time.Second):
			t.Fatal("front end never started")
		}
		// The listener is not accepting yet: readiness must say so,
		// however long the prober keeps asking.
		for i := 0; i < 20; i++ {
			if status := healthz(t, admin); status != http.StatusServiceUnavailable {
				t.Fatalf("/healthz = %d while the query listener is not up, want 503", status)
			}
			time.Sleep(time.Millisecond)
		}
		close(front.release)
		s := <-done
		if s.err != nil {
			t.Fatal(s.err)
		}
		defer s.app.Close()
		if status := healthz(t, admin); status != http.StatusOK {
			t.Errorf("/healthz = %d after Start returned, want 200", status)
		}
	})
}

// TestBadListenFailsBeforeBuild: a dataset daemon whose listener cannot
// bind says so without paying for the first build (here the build could
// not even succeed — the listen error must be the one reported).
func TestBadListenFailsBeforeBuild(t *testing.T) {
	front := newFake()
	front.startErr = errors.New("listen: address already in use")
	_, err := daemon.Start(context.Background(), datasetSpec(front),
		daemon.Flags{DataDir: filepath.Join(t.TempDir(), "missing"), LogLevel: "warn"})
	if !errors.Is(err, front.startErr) {
		t.Fatalf("err = %v, want the listen error", err)
	}
	select {
	case <-front.closed:
	default:
		t.Error("failed Start left the front end open")
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func healthz(t *testing.T, admin string) int {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// writeBroken corrupts the directory's RPKI snapshot, which every build
// reads.
func writeBroken(dir string) error {
	return os.WriteFile(filepath.Join(dir, rpki.SnapshotFile), []byte("{broken"), 0o644)
}
