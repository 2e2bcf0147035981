// Package daemon is the skeleton the two serving daemons (p2o-whoisd,
// p2o-httpd) share: the common flags, the one start sequence wiring
// snapshot source, store, reloader, admin listener and protocol front
// end, the signal loop, and — for the front ends themselves — the TCP
// accept loop (Listen) and the query resolver (Resolve). A daemon's main
// supplies a Spec: its name, and how to construct its server.
//
// What every daemon does the same way, documented here once:
//
// -data builds from a data directory. -snapshot instead opens either
// format `prefix2org export-snapshot` writes — the binary serve format
// or JSON lines, detected from the file contents, not the name — and
// serves it as a read snapshot: a view over the binary bytes (a JSON
// file is encoded to them once), whose records materialize lazily on
// first touch. -snapshot-mmap, which requires -snapshot, maps a binary
// file read-only instead of reading it, so startup is near-instant and
// replicas pointed at the same file share page cache; the mapping of a
// swapped-out snapshot is released only after its last in-flight query
// drops its pin.
//
// The daemon serves immutable snapshots from a hot-swappable store and
// picks up new data without restarting: SIGHUP rebuilds from the source
// and swaps the new snapshot in (in-flight queries keep the snapshot
// they pinned), -reload-interval does the same on a timer, and the
// admin listener's /reload endpoint reloads synchronously. A failed
// rebuild leaves the current snapshot serving. -reload-delta makes
// those reloads incremental: only input files whose content hash
// changed are re-read, an unchanged directory is a no-op reload (no
// swap at all), and any delta failure falls back to a full rebuild.
//
// With -metrics-listen, an admin HTTP listener exposes /metrics (text
// or ?format=json), /healthz, /reload, /debug/queries and /debug/pprof/.
// /healthz is a readiness probe, and the start sequence holds one
// invariant for it: it does not answer 200 until the query listener
// accepts connections. The listener is bound before the first build, and
// the store's first Swap — what flips readiness — comes after that
// build.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/store"
)

// FrontEnd is a protocol server as the skeleton sees it. Start binds
// the query listener on addr and returns the bound address; Close stops
// it.
type FrontEnd interface {
	Start(addr string) (string, error)
	Close() error
}

// Spec is what differs between the daemons.
type Spec struct {
	// Name is the command name ("p2o-httpd"): the logger component and
	// the prefix of fatal errors.
	Name string
	// Listen is the default of -listen, the query listener's address.
	Listen string
	// Telemetry is the front end package's query telemetry, tuned by
	// the -slo-target / -slow-query-threshold / -query-sample flags and
	// mounted at /debug/queries.
	Telemetry *obs.QueryTelemetry
	// Dataset constructs the front end, which answers from the datasets
	// st serves, built from -data or opened from -snapshot. Its listener
	// is bound before the first build: the protocol has a not-ready
	// answer, so early clients get that rather than connection refused,
	// and a bad -listen fails before the build is paid for.
	Dataset func(st *store.Store) FrontEnd
}

// Flags holds the values of the flags every daemon shares.
type Flags struct {
	DataDir        string
	Snapshot       string
	SnapshotMmap   bool
	Listen         string
	MetricsListen  string
	ReloadInterval time.Duration
	ReloadDelta    bool
	SLOTarget      time.Duration
	SlowThreshold  time.Duration
	QuerySample    int
	LogLevel       string
	LogJSON        bool
}

// RegisterFlags registers the shared flags on fs, with spec's -listen
// default.
func RegisterFlags(fs *flag.FlagSet, spec Spec) *Flags {
	var f Flags
	fs.StringVar(&f.DataDir, "data", "", "data directory to build from")
	fs.StringVar(&f.Snapshot, "snapshot", "", "pre-built dataset snapshot (alternative to -data)")
	fs.BoolVar(&f.SnapshotMmap, "snapshot-mmap", false, "serve a v2 binary -snapshot in place via mmap (lazy materialization, shared page cache)")
	fs.StringVar(&f.Listen, "listen", spec.Listen, "address to serve queries on")
	fs.StringVar(&f.MetricsListen, "metrics-listen", "", "address for the admin HTTP listener (/metrics, /healthz, /reload, /debug/queries, pprof); empty disables it")
	fs.DurationVar(&f.ReloadInterval, "reload-interval", 0, "rebuild and swap the snapshot periodically (e.g. 1h); 0 reloads only on SIGHUP or /reload")
	fs.BoolVar(&f.ReloadDelta, "reload-delta", false, "rebuild incrementally on reload: re-read only the input files whose content hash changed, skip the swap when none did (requires -data)")
	fs.DurationVar(&f.SLOTarget, "slo-target", 0, "latency SLO per query (e.g. 5ms); those over it count in the daemon's *_slo_violations_total; 0 disables")
	fs.DurationVar(&f.SlowThreshold, "slow-query-threshold", 250*time.Millisecond, "capture and log queries slower than this; 0 disables")
	fs.IntVar(&f.QuerySample, "query-sample", 16, "record a detailed span for 1 in N queries on /debug/queries; 0 disables sampling")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug|info|warn|error")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit logs as JSON instead of text")
	return &f
}

// source picks the snapshot source the flags name, plus its label for
// the pending store; an error is a usage error (Main exits 2 on it).
func (f *Flags) source() (store.Source, string, error) {
	switch {
	case (f.DataDir == "") == (f.Snapshot == ""):
		return store.Source{}, "", errors.New("exactly one of -data or -snapshot is required")
	case f.Snapshot == "" && f.SnapshotMmap:
		return store.Source{}, "", errors.New("-snapshot-mmap requires -snapshot")
	case f.Snapshot == "":
		return store.DirSource(f.DataDir, prefix2org.Options{Incremental: f.ReloadDelta}), f.DataDir, nil
	case f.ReloadDelta:
		return store.Source{}, "", errors.New("-reload-delta requires -data (snapshots are rebuilt externally)")
	default:
		return store.FileSource(f.Snapshot, f.SnapshotMmap), f.Snapshot, nil
	}
}

// Main is a daemon's whole main: register spec's shared flags next to
// the protocol flags main already registered, parse, start, and serve
// until SIGINT/SIGTERM, reloading on SIGHUP. It exits the process on
// failure: status 2 for a usage error, 1 for a failed start. ctx is
// main's context.Background — the root the builds and the reloader
// descend from.
func Main(ctx context.Context, spec Spec) {
	f := RegisterFlags(flag.CommandLine, spec)
	flag.Parse()
	if _, _, err := f.source(); err != nil {
		fmt.Fprintln(os.Stderr, spec.Name+":", err)
		os.Exit(2)
	}
	a, err := Start(ctx, spec, *f)
	if err != nil {
		fmt.Fprintln(os.Stderr, spec.Name+":", err)
		os.Exit(1)
	}
	defer a.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			a.logger.Info("shutting down", "signal", s.String())
			return
		}
		a.logger.Info("SIGHUP received, reloading snapshot")
		a.reloader.Trigger()
	}
}

// App is one running daemon instance; tests drive Start/Close directly.
type App struct {
	// Addr and AdminAddr are the bound query and admin listeners
	// (AdminAddr empty without -metrics-listen).
	Addr, AdminAddr string
	// Store is the snapshot store the front end answers from.
	Store *store.Store

	front    FrontEnd
	admin    *obs.Admin
	reloader *store.Reloader
	stop     context.CancelFunc
	reloaded chan struct{} // closed when the reload loop has exited
	logger   *slog.Logger
}

// Start runs the one start sequence: logging, snapshot source, pending
// store, reloader, telemetry flags, admin routes, the front-end
// listener, the first build, the Swap that flips /healthz to ready, and
// the reload loop.
// On error whatever was started is closed again.
func Start(ctx context.Context, spec Spec, f Flags) (_ *App, err error) {
	level, err := obs.ParseLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	obs.Configure(level, f.LogJSON, os.Stderr)
	src, label, err := f.source()
	if err != nil {
		return nil, err
	}

	// The store starts pending (version 0, not ready) so the admin
	// listener — and its /healthz readiness probe — is up before the
	// first build: probes see 503 while the snapshot builds, not
	// connection refused.
	st := store.NewPending(label)
	rel := store.NewReloader(st, src, store.ReloaderConfig{Interval: f.ReloadInterval})
	spec.Telemetry.SetSLOTarget(f.SLOTarget)
	spec.Telemetry.SetSlowThreshold(f.SlowThreshold)
	spec.Telemetry.SetSampleEvery(uint64(max(f.QuerySample, 0)))

	ctx, cancel := context.WithCancel(ctx)
	a := &App{Store: st, reloader: rel, stop: cancel, logger: obs.Logger(spec.Name)}
	defer func() {
		if err != nil {
			a.Close()
		}
	}()
	if f.MetricsListen != "" {
		a.admin, err = obs.ServeAdmin(f.MetricsListen, obs.Default(),
			obs.Route{Pattern: "/reload", Handler: rel.Handler()},
			obs.Route{Pattern: "/healthz", Handler: obs.ReadyHandler(st.Ready)},
			obs.Route{Pattern: "/debug/queries", Handler: spec.Telemetry.DebugHandler()})
		if err != nil {
			return nil, err
		}
		a.AdminAddr = a.admin.Addr()
		a.logger.Info("admin listener up", "addr", a.AdminAddr)
	}
	a.front = spec.Dataset(st)
	if a.Addr, err = a.front.Start(f.Listen); err != nil {
		return nil, err
	}
	snap, err := src.Build(ctx)
	if err != nil {
		return nil, err
	}
	st.Swap(snap)
	a.reloaded = make(chan struct{})
	go func() {
		defer close(a.reloaded)
		rel.Run(ctx)
	}()
	a.logger.Info("serving", "addr", a.Addr, "snapshot", snap.Describe())
	return a, nil
}

// Close shuts the instance down in order: the reloader first (no swap
// lands on a closing front end), then the admin listener, then the
// front end, which drains its connections.
func (a *App) Close() {
	a.stop()
	if a.reloaded != nil {
		<-a.reloaded
	}
	if a.admin != nil {
		_ = a.admin.Close()
	}
	if a.front != nil {
		_ = a.front.Close()
	}
}
