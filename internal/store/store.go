// Package store separates the serving read path from the build
// pipeline. A Snapshot is one immutable, versioned view of the world:
// the built Prefix2Org Dataset, whose read indexes — the frozen LPM
// index, the exact-match and cluster lookups, eager or view-backed —
// travel with it. A Store holds the current Snapshot behind an atomic
// pointer, so concurrent readers grab a consistent view with one load
// and never block on — or observe a torn state from — a swap. A Source
// is where snapshots come from (a data directory or a snapshot file): a
// full build and, where the source supports it, the matching
// incremental build. A Reloader rebuilds from a Source on demand
// (signal, admin endpoint, timer) and swaps the result in with
// serve-stale-on-failure semantics.
//
// The contract that makes the lock-free read path sound: a Snapshot and
// everything reachable from it is frozen once published. Writers build
// a complete new Snapshot off to the side and publish it with a single
// Swap; readers that loaded the old pointer keep a valid, internally
// consistent view for as long as they hold it.
package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/diff"
	"github.com/prefix2org/prefix2org/internal/obs"
)

var (
	mSnapshotVersion = obs.Default().Gauge("store_snapshot_version")
	mSwaps           = obs.Default().Counter("store_swaps_total")
	// mLastSuccess is the unix time a real snapshot was last installed
	// (initial build or reload). A dashboard alerting on "now - this"
	// catches a daemon silently serving ever-staler data.
	mLastSuccess = obs.Default().Gauge("store_reload_last_success_unix")

	logger = obs.Logger("store")
)

// Snapshot is one immutable serving view. Version and the contents are
// fixed once the snapshot has been published via New or Swap; building
// code must not mutate a snapshot after handing it to a Store.
type Snapshot struct {
	// Version is assigned on publication: 1 for a Store's initial
	// snapshot, then incremented by every Swap.
	Version uint64
	// BuiltAt is when the snapshot was produced.
	BuiltAt time.Time
	// Source describes what produced the snapshot ("dir:data/",
	// "file:snap.jsonl") for logs and the /reload endpoint.
	Source string
	// Dataset is the built Prefix2Org mapping; nil only in a pending
	// store's placeholder (NewPending).
	Dataset *prefix2org.Dataset
	// Changes is the exact changeset from the previously served snapshot
	// to this one, published by the delta builder so subscribers react
	// to what actually changed: the httpd response cache invalidates
	// only affected entries. Nil when unknown (full rebuilds, startup
	// snapshots) — subscribers must then assume everything changed.
	Changes *diff.Changeset
	// Closer releases resources the snapshot's data aliases — the mmap
	// of a view-backed dataset. It runs exactly once, when the last
	// reference is dropped: the Store holds one reference for as long
	// as the snapshot is current (Swap drops it), and every
	// Acquire/release pair brackets one in-flight reader. Snapshots
	// with a nil Closer (every eager dataset) skip the machinery
	// entirely on the read side except for two atomic ops.
	Closer func() error

	// refs counts the Store's publication reference plus in-flight
	// Acquire pins. Managed by the Store; builders leave it zero.
	refs atomic.Int64
}

// tryRef acquires a reference if the snapshot is still live (refs >
// 0). It fails only when the snapshot already hit zero — swapped out
// with no readers — at which point its Closer may have run.
func (s *Snapshot) tryRef() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unref drops one reference and runs the Closer on the last one.
func (s *Snapshot) unref() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if s.Closer == nil {
		return
	}
	if err := s.Closer(); err != nil {
		logger.Error("snapshot close failed", "version", s.Version, "source", s.Source, "err", err)
	}
}

// Store publishes the current Snapshot to concurrent readers. The zero
// value is not usable; construct with New.
type Store struct {
	cur atomic.Pointer[Snapshot]

	// mu serializes swaps and subscription changes; the read path never
	// takes it.
	mu   sync.Mutex
	subs []subscription
	next uint64 // subscription id seed
}

type subscription struct {
	id uint64
	fn func(*Snapshot)
}

// New builds a store serving initial, which receives version 1 (unless
// the caller pre-assigned a version, preserved for restore flows).
func New(initial *Snapshot) *Store {
	if initial == nil {
		panic("store: nil initial snapshot")
	}
	if initial.Version == 0 {
		initial.Version = 1
	}
	publish(initial)
	s := &Store{}
	s.cur.Store(initial)
	mSnapshotVersion.Set(float64(initial.Version))
	if initial.Dataset != nil {
		mLastSuccess.Set(float64(time.Now().Unix()))
	}
	return s
}

// NewPending builds a store with an empty placeholder snapshot (version
// 0, no dataset): the daemon-bootstrap shape where the
// admin listener — and its readiness probe — comes up before the first
// build completes. Readers get a valid snapshot immediately; Ready
// reports false until a real snapshot is swapped in.
func NewPending(source string) *Store {
	s := &Store{}
	placeholder := &Snapshot{Source: source}
	publish(placeholder)
	s.cur.Store(placeholder)
	mSnapshotVersion.Set(0)
	return s
}

// publish normalizes a snapshot's refcount to the single publication
// reference the Store owns. Snapshots arrive with refs == 0 from
// builders (and from tests constructing bare literals); publishing
// twice — a restore flow re-seeding a store — keeps the existing
// count.
func publish(s *Snapshot) {
	if s.refs.Load() == 0 {
		s.refs.Store(1)
	}
}

// Ready reports whether the store serves a real snapshot — one carrying
// a dataset. A pending store (NewPending) is not ready until its first
// Swap; /healthz returns 503 until then.
func (s *Store) Ready() bool { return s.Current().Dataset != nil }

// Current returns the snapshot being served. The result is immutable
// and remains internally consistent for as long as the caller holds it,
// no matter how many swaps happen meanwhile; per-request readers call
// Current once and answer entirely from that snapshot.
//
// Current does not pin the snapshot's backing resources: a view-backed
// dataset's mapping may be released once the snapshot is swapped out.
// Request handlers that serve from snapshot data use Acquire instead.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Acquire returns the current snapshot with its backing resources
// pinned, plus the release function that undoes the pin. The snapshot
// — including every string and record reachable from a view-backed
// dataset — stays valid until release is called, even across swaps;
// the mapping of a swapped-out snapshot is only closed after its last
// reader releases.
//
// release is idempotent: only its first call drops the pin, so a
// handler that releases explicitly and again via defer cannot
// double-free the snapshot. Dropping release without calling it leaks
// the pin (and a view-backed snapshot's mapping); the pin-release lint
// rule flags call sites where release can escape or go uninvoked.
func (s *Store) Acquire() (*Snapshot, func()) {
	for {
		snap := s.cur.Load()
		if snap.tryRef() {
			var released atomic.Bool
			return snap, func() {
				if released.CompareAndSwap(false, true) {
					snap.unref()
				}
			}
		}
		// The snapshot hit refcount zero between our load and the
		// tryRef — meaning it was already swapped out. The new current
		// is published with a reference, so the retry terminates.
	}
}

// Swap publishes next as the current snapshot, assigns it the next
// version, notifies subscribers (in subscription order, on the caller's
// goroutine), and returns the previous snapshot. In-flight readers
// holding the previous snapshot are undisturbed.
func (s *Store) Swap(next *Snapshot) (old *Snapshot) {
	if next == nil {
		panic("store: nil snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old = s.cur.Load()
	next.Version = old.Version + 1
	publish(next)
	s.cur.Store(next)
	mSnapshotVersion.Set(float64(next.Version))
	mSwaps.Inc()
	if next.Dataset != nil {
		mLastSuccess.Set(float64(time.Now().Unix()))
	}
	for _, sub := range s.subs {
		sub.fn(next)
	}
	// Drop the publication reference of the snapshot we replaced: its
	// Closer runs now if no reader holds a pin, or when the last pinned
	// reader releases. Subscribers were notified first, so a subscriber
	// still reading old data did so before the release.
	old.unref()
	return old
}

// Subscribe registers fn to run after every future Swap, receiving the
// newly published snapshot. Callbacks run synchronously on the swapping
// goroutine, in subscription order — keep them short (the httpd
// response cache clearing its shards is the intended scale). The
// returned cancel removes the subscription.
func (s *Store) Subscribe(fn func(*Snapshot)) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.subs = append(s.subs, subscription{id: id, fn: fn})
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.subs {
			if s.subs[i].id == id {
				s.subs = append(s.subs[:i], s.subs[i+1:]...)
				return
			}
		}
	}
}

// --- snapshot sources --------------------------------------------------------

// Source is one place snapshots come from: the full build and, when the
// source can rebuild incrementally, the delta build that goes with it.
// The two are constructed together so they cannot disagree about the
// directory or the options — a delta splices against the state the full
// build retained.
type Source struct {
	// Build produces one fresh Snapshot (version left zero — the Store
	// assigns it at publication). It runs for a daemon's startup
	// snapshot and for every full reload.
	Build func(ctx context.Context) (*Snapshot, error)
	// Delta, when non-nil, is tried before Build on every reload: it
	// produces the next Snapshot incrementally from the one currently
	// served. Returning (nil, nil) means the inputs are unchanged and
	// the current snapshot stays; any error makes the Reloader fall back
	// to Build (serve-stale semantics apply only if the full rebuild
	// then fails too).
	Delta func(ctx context.Context, prev *Snapshot) (*Snapshot, error)
}

// DirSource runs the pipeline over a data directory.
//
// With opts.Incremental the source carries a Delta that re-parses only
// the source files whose manifest hash changed, re-resolves only the
// affected prefixes, and publishes the exact changeset on the resulting
// snapshot; the full build retains the state that delta splices
// against, so the fallback also yields delta-capable snapshots.
//
// A delta reload always runs beside live queries, so unless the caller
// set opts.Workers it builds with one worker fewer than GOMAXPROCS: a
// build that keeps every P busy parks each arriving query behind a
// CPU-bound goroutine for up to a scheduler time slice (measured on two
// cores: median query latency under reload 0.9 ms → 12 ms, p99 17 ms →
// 120 ms), and its own duration then depends on how the queries
// interleave. The output does not depend on the worker count.
func DirSource(dir string, opts prefix2org.Options) Source {
	snapshot := func(ds *prefix2org.Dataset, cs *diff.Changeset) *Snapshot {
		return &Snapshot{BuiltAt: time.Now(), Source: "dir:" + dir, Dataset: ds, Changes: cs}
	}
	src := Source{Build: func(ctx context.Context) (*Snapshot, error) {
		ds, err := prefix2org.BuildFromDir(ctx, dir, opts)
		if err != nil {
			return nil, err
		}
		return snapshot(ds, nil), nil
	}}
	if !opts.Incremental {
		return src
	}
	dopts := opts
	if dopts.Workers < 1 {
		dopts.Workers = max(1, runtime.GOMAXPROCS(0)-1)
	}
	src.Delta = func(ctx context.Context, prev *Snapshot) (*Snapshot, error) {
		res, err := prefix2org.BuildDelta(ctx, prev.Dataset, dir, dopts)
		if errors.Is(err, prefix2org.ErrNoChange) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		cs, err := diff.Changes(prev.Dataset, res.Dataset)
		if err != nil {
			return nil, err
		}
		return snapshot(res.Dataset, cs), nil
	}
	return src
}

// FileSource opens a serialized dataset snapshot for serving in place:
// a v2 binary snapshot is view-backed (mmap'd when mmap is set) with
// its release threaded through the snapshot's Closer, a JSON snapshot
// transparently falls back to the eager load. Such files are rebuilt
// externally, so there is no Delta.
func FileSource(path string, mmap bool) Source {
	return Source{Build: func(ctx context.Context) (*Snapshot, error) {
		ds, err := prefix2org.OpenSnapshotFile(ctx, path, prefix2org.OpenOptions{Mmap: mmap})
		if err != nil {
			return nil, err
		}
		return &Snapshot{BuiltAt: time.Now(), Source: "file:" + path, Dataset: ds, Closer: ds.Close}, nil
	}}
}

// Describe renders a snapshot for logs and the /reload endpoint.
func (s *Snapshot) Describe() string {
	if s.Dataset != nil {
		return fmt.Sprintf("v%d (%d records, %d clusters)", s.Version, s.Dataset.NumRecords(), s.Dataset.NumClusters())
	}
	return fmt.Sprintf("v%d", s.Version)
}
