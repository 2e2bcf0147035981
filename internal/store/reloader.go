package store

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/prefix2org/prefix2org/internal/diff"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/retry"
)

var (
	mReloads        = obs.Default().Counter("store_reloads_total")
	mReloadFailures = obs.Default().Counter("store_reload_failures_total")
	mReloadSeconds  = obs.Default().Histogram("store_reload_seconds", reloadBuckets)
	// Delta-path accounting: reloads served by the incremental builder,
	// reloads where the delta errored and the full build ran instead,
	// reloads skipped outright because no input changed, and the number
	// of routed prefixes the last delta re-resolved (set by DirSource).
	mDeltaReloads   = obs.Default().Counter("store_delta_reloads_total")
	mDeltaFallbacks = obs.Default().Counter("store_delta_fallbacks_total")
	mReloadsNoop    = obs.Default().Counter("store_reloads_noop_total")
	mDeltaAffected  = obs.Default().Gauge("store_delta_affected_prefixes")
)

// reloadBuckets span the rebuild durations this repo sees: from a small
// delta (milliseconds) to a full paper-scale pipeline run.
var reloadBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// ReloaderConfig tunes a Reloader. The zero value reloads only on
// demand and retries failed builds on the default backoff schedule.
type ReloaderConfig struct {
	// Interval rebuilds periodically when positive; zero disables the
	// timer (reloads then happen only via Trigger, Reload, or the
	// /reload handler).
	Interval time.Duration
	// MinBackoff is the delay before the first automatic retry after a
	// failed build (default 1s).
	MinBackoff time.Duration
	// MaxBackoff caps the retry delay growth (default 2m).
	MaxBackoff time.Duration
}

// Reloader rebuilds snapshots and swaps them into a Store. All builds
// run on the Run goroutine, so concurrent triggers (SIGHUP, /reload,
// the interval timer, backoff retries) serialize rather than racing two
// pipeline runs; a failed build leaves the current snapshot serving
// (serve-stale) and schedules a capped-exponential-backoff retry that
// resets on the next success.
type Reloader struct {
	store *Store
	src   Source
	cfg   ReloaderConfig
	reqs  chan chan error
}

// NewReloader wires a reloader swapping src's snapshots into st. Run
// must be started for Trigger/Reload/the handler to make progress.
func NewReloader(st *Store, src Source, cfg ReloaderConfig) *Reloader {
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Minute
	}
	return &Reloader{
		store: st,
		src:   src,
		cfg:   cfg,
		// A small buffer lets Trigger coalesce: if a reload is already
		// queued, further triggers are satisfied by that pending run.
		reqs: make(chan chan error, 1),
	}
}

// Run services reload requests until ctx is cancelled. Call it on a
// dedicated goroutine.
func (r *Reloader) Run(ctx context.Context) {
	var tick <-chan time.Time
	if r.cfg.Interval > 0 {
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	bo := retry.Backoff{Min: r.cfg.MinBackoff, Max: r.cfg.MaxBackoff}
	var retryCh <-chan time.Time
	handle := func(reply chan error) {
		err := r.reloadOnce(ctx)
		if reply != nil {
			reply <- err
		}
		if err != nil && ctx.Err() == nil {
			retryCh = time.After(bo.Next())
		} else {
			retryCh = nil
			bo.Reset()
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case reply := <-r.reqs:
			handle(reply)
		case <-tick:
			handle(nil)
		case <-retryCh:
			handle(nil)
		}
	}
}

// Trigger requests an asynchronous reload (the SIGHUP path). If a
// reload is already queued the trigger coalesces into it.
func (r *Reloader) Trigger() {
	select {
	case r.reqs <- nil:
	default:
	}
}

// Reload performs one reload synchronously through the Run loop and
// returns the build error; on failure the previous snapshot stays
// served. It blocks until the Run goroutine picks the request up, so it
// requires Run to be active.
func (r *Reloader) Reload(ctx context.Context) error {
	reply := make(chan error, 1)
	select {
	case r.reqs <- reply:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler serves the admin /reload endpoint: each request performs one
// synchronous reload and reports the outcome (500 with the build error
// — and the still-served stale version — on failure).
func (r *Reloader) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if err := r.Reload(req.Context()); err != nil {
			http.Error(w, fmt.Sprintf("reload failed (still serving snapshot v%d): %v",
				r.store.Current().Version, err), http.StatusInternalServerError)
			return
		}
		cur := r.store.Current()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "reloaded: serving snapshot %s from %s\n", cur.Describe(), cur.Source)
	})
}

// reloadOnce builds one snapshot and swaps it in, publishing the reload
// metrics and — after a full rebuild between two eager datasets — the
// internal/diff change summary of what the swap changed.
//
// When the source has a Delta, it runs first against the currently
// served snapshot: an unchanged manifest turns the reload into a no-op
// (no swap, so the version every cached response is keyed on stays),
// and any delta error downgrades to the full build. Serve-stale applies
// only when the full build fails too — the previous snapshot is never
// disturbed either way.
func (r *Reloader) reloadOnce(ctx context.Context) error {
	start := time.Now()
	next, err := r.tryDelta(ctx)
	delta := err == nil
	switch {
	case delta && next == nil:
		mReloadsNoop.Inc()
		logger.Info("reload no-op: inputs unchanged",
			"version", r.store.Current().Version, "duration", time.Since(start))
		return nil
	case delta:
		mDeltaReloads.Inc()
	default:
		if ctx.Err() != nil {
			return err
		}
		if !errors.Is(err, errNoDelta) {
			mDeltaFallbacks.Inc()
			logger.Warn("delta rebuild unavailable; running full rebuild", "err", err)
		}
		next, err = r.src.Build(ctx)
		if err != nil {
			mReloadFailures.Inc()
			logger.Error("rebuild failed; serving stale snapshot",
				"version", r.store.Current().Version, "err", err)
			return err
		}
	}
	// Pin the outgoing snapshot before the swap so its backing buffer
	// (a view-backed dataset's mmap) survives long enough to diff
	// against the incoming one; the pin is the only thing keeping it
	// alive once Swap drops the store's reference.
	old, release := r.store.Acquire()
	defer release()
	r.store.Swap(next)
	dur := time.Since(start)
	mReloads.Inc()
	mReloadSeconds.Observe(dur.Seconds())
	// Diffing walks both datasets in full through RecordAt: a delta must
	// not pay for that walk — its cost is meant to track the change — and
	// on a read (view-backed) snapshot it would fill the chunk cache with
	// every record on the reload path, the opposite of what serving in
	// place is for. Only a full rebuild between two eager datasets logs
	// the change summary.
	if !delta && old.Dataset != nil && next.Dataset != nil && !old.Dataset.Lazy() && !next.Dataset.Lazy() {
		if rep, derr := diff.Compare(old.Dataset, next.Dataset); derr == nil {
			logger.Info("snapshot swapped",
				"snapshot", next.Describe(), "duration", dur, "changes", rep.Summary())
			return nil
		}
	}
	logger.Info("snapshot swapped", "snapshot", next.Describe(), "duration", dur)
	return nil
}

// errNoDelta signals the delta path was not attempted at all — the
// source offers none, or there is no real previous snapshot to splice
// against. The full build then runs without counting a delta fallback.
var errNoDelta = errors.New("store: delta not attempted")

// tryDelta runs the source's incremental builder against the
// currently served snapshot, holding a pin on it for the duration so a
// view-backed previous snapshot cannot be unmapped mid-splice.
func (r *Reloader) tryDelta(ctx context.Context) (*Snapshot, error) {
	if r.src.Delta == nil {
		return nil, errNoDelta
	}
	prev, release := r.store.Acquire()
	defer release()
	if prev.Dataset == nil {
		return nil, errNoDelta // pending placeholder: nothing to delta against
	}
	return r.src.Delta(ctx, prev)
}
