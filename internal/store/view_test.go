package store_test

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// snapshotFiles writes one world dataset in every on-disk snapshot
// format and returns the eager dataset plus the three paths.
func snapshotFiles(t *testing.T) (ds *prefix2org.Dataset, v2, v1, jsonl string) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err = prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2 = filepath.Join(dir, "snap-v2.p2o")
	if err := ds.SaveFile(v2); err != nil {
		t.Fatal(err)
	}
	v1 = filepath.Join(dir, "snap-v1.p2o")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveBinaryV1(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	jsonl = filepath.Join(dir, "snap.jsonl")
	if err := ds.SaveFile(jsonl); err != nil {
		t.Fatal(err)
	}
	return ds, v2, v1, jsonl
}

// TestFileSourceFormatMatrix runs the -snapshot-mmap source over
// every readable snapshot format in both open modes: each must come back
// view-backed with a Closer and answer lookups identically.
func TestFileSourceFormatMatrix(t *testing.T) {
	ds, v2, _, jsonl := snapshotFiles(t)
	probe := ds.Records[0].Prefix.Addr()
	want, _ := ds.LookupAddr(probe)

	cases := []struct {
		name string
		path string
	}{
		{"v2", v2},
		{"jsonl", jsonl},
	}
	for _, tc := range cases {
		for _, mmap := range []bool{true, false} {
			snap, err := store.FileSource(tc.path, mmap).Build(context.Background())
			if err != nil {
				t.Fatalf("%s mmap=%v: %v", tc.name, mmap, err)
			}
			if !snap.Dataset.Lazy() {
				t.Errorf("%s mmap=%v: not view-backed", tc.name, mmap)
			}
			if snap.Closer == nil {
				t.Errorf("%s mmap=%v: view-backed snapshot has no Closer", tc.name, mmap)
			}
			if got, ok := snap.Dataset.LookupAddr(probe); !ok || got.Prefix != want.Prefix {
				t.Errorf("%s mmap=%v: LookupAddr diverged from the eager dataset", tc.name, mmap)
			}
			if n := snap.Dataset.NumRecords(); n != len(ds.Records) {
				t.Errorf("%s mmap=%v: %d records, want %d", tc.name, mmap, n, len(ds.Records))
			}
			if snap.Closer != nil {
				_ = snap.Closer()
			}
		}
	}
}

// TestFileSourceV1ServesStale: a v1 file, which no reader accepts any
// more, replacing the served snapshot fails the reload — counted, the
// old snapshot still serving — in both open modes.
func TestFileSourceV1ServesStale(t *testing.T) {
	ds, _, v1, _ := snapshotFiles(t)
	old, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	probe := ds.Records[0].Prefix.Addr()
	for _, mmap := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "snap.p2o")
		if err := ds.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		src := store.FileSource(path, mmap)
		snap1, err := src.Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st := store.New(snap1)
		rel := store.NewReloader(st, src, store.ReloaderConfig{MinBackoff: time.Minute})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		go rel.Run(ctx)
		// Replace by rename, as an export does: the mapping stays valid.
		if err := os.WriteFile(path+".new", old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path+".new", path); err != nil {
			t.Fatal(err)
		}
		failuresBefore := obs.Default().Counter("store_reload_failures_total").Value()
		if err := rel.Reload(ctx); err == nil || ctx.Err() != nil {
			t.Fatalf("mmap=%v: reload onto a v1 snapshot: err = %v, want a refusal", mmap, err)
		}
		if d := obs.Default().Counter("store_reload_failures_total").Value() - failuresBefore; d != 1 {
			t.Errorf("mmap=%v: store_reload_failures_total moved by %d, want 1", mmap, d)
		}
		cur := st.Current()
		if cur.Version != snap1.Version {
			t.Fatalf("mmap=%v: swap happened on a failed reload: v%d", mmap, cur.Version)
		}
		if _, ok := cur.Dataset.LookupAddr(probe); !ok {
			t.Fatalf("mmap=%v: stale snapshot stopped answering", mmap)
		}
	}
}

// TestViewReloadServeStaleOnCorruptSnapshot: a reload that hits a
// corrupted v2 file must fail without disturbing the serving snapshot —
// and a repaired file must reload cleanly afterwards.
func TestViewReloadServeStaleOnCorruptSnapshot(t *testing.T) {
	ds, v2, _, _ := snapshotFiles(t)
	good, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	src := store.FileSource(v2, false)
	snap1, err := src.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(snap1)
	rel := store.NewReloader(st, src, store.ReloaderConfig{MinBackoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rel.Run(ctx)

	// Corrupt the directory: a flipped byte in the section table must
	// fail the open, not serve garbage.
	bad := append([]byte(nil), good...)
	bad[20] ^= 0xff
	if err := os.WriteFile(v2, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(ctx); err == nil {
		t.Fatal("reload of a corrupted v2 snapshot succeeded")
	}
	cur := st.Current()
	if cur.Version != snap1.Version {
		t.Fatalf("swap happened on a failed reload: v%d", cur.Version)
	}
	probe := ds.Records[0].Prefix.Addr()
	if _, ok := cur.Dataset.LookupAddr(probe); !ok {
		t.Fatal("stale snapshot stopped answering")
	}

	if err := os.WriteFile(v2, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rel.Reload(ctx); err != nil {
		t.Fatalf("reload of the repaired snapshot failed: %v", err)
	}
	if got := st.Current().Version; got <= snap1.Version {
		t.Fatalf("repaired reload did not swap: v%d", got)
	}
}

// instrumentCloser wraps a snapshot's Closer with a call counter so the
// tests below can observe exactly when the backing mapping is released.
func instrumentCloser(snap *store.Snapshot, n *atomic.Int64) {
	orig := snap.Closer
	snap.Closer = func() error {
		n.Add(1)
		if orig != nil {
			return orig()
		}
		return nil
	}
}

// TestSwapReleasesMappingAfterLastPin is the mapping-lifetime contract,
// end to end: a view-backed snapshot swapped out of the store keeps its
// mapping exactly until the last in-flight query drops its pin, then
// the Closer runs once.
func TestSwapReleasesMappingAfterLastPin(t *testing.T) {
	ds, v2, _, _ := snapshotFiles(t)
	build := store.FileSource(v2, true).Build
	probe := ds.Records[0].Prefix.Addr()

	snap1, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var closed1 atomic.Int64
	instrumentCloser(snap1, &closed1)
	st := store.New(snap1)

	// An in-flight query pins the snapshot...
	pinned, release := st.Acquire()
	if pinned.Version != snap1.Version {
		t.Fatalf("pinned v%d, want v%d", pinned.Version, snap1.Version)
	}

	// ...and the snapshot survives being swapped out.
	snap2, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st.Swap(snap2)
	if got := closed1.Load(); got != 0 {
		t.Fatalf("mapping closed %d times while a query was in flight", got)
	}
	if _, ok := pinned.Dataset.LookupAddr(probe); !ok {
		t.Fatal("pinned snapshot stopped answering after the swap")
	}

	// The last release is what closes it — exactly once.
	release()
	if got := closed1.Load(); got != 1 {
		t.Fatalf("Closer ran %d times after the last release, want 1", got)
	}
	// Double release of the same pin must not double-close.
	release()
	if got := closed1.Load(); got != 1 {
		t.Fatalf("Closer ran %d times after a duplicate release, want 1", got)
	}
	if _, ok := st.Current().Dataset.LookupAddr(probe); !ok {
		t.Fatal("current snapshot not serving")
	}
}

// TestSwapUnderConcurrentViewQueries hammers a store backed by mmap'd
// v2 snapshots with concurrent readers while snapshots swap underneath:
// no query may ever miss (the dataset is complete at every version), no
// reader may touch a released mapping, and once the dust settles every
// swapped-out snapshot's Closer has run exactly once.
func TestSwapUnderConcurrentViewQueries(t *testing.T) {
	ds, v2, _, _ := snapshotFiles(t)
	build := store.FileSource(v2, true).Build

	// The expected answers come from the eager dataset: a record's base
	// address may legitimately resolve to a more-specific record.
	type probe struct {
		addr netip.Addr
		want netip.Prefix
	}
	probes := make([]probe, 0, len(ds.Records))
	for i := range ds.Records {
		a := ds.Records[i].Prefix.Addr()
		if rec, ok := ds.LookupAddr(a); ok {
			probes = append(probes, probe{a, rec.Prefix})
		}
	}
	snap1, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counters := []*atomic.Int64{new(atomic.Int64)}
	instrumentCloser(snap1, counters[0])
	st := store.New(snap1)

	const (
		readers = 8
		queries = 400
		swaps   = 25
	)
	var dropped atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				snap, release := st.Acquire()
				p := &probes[(seed+q)%len(probes)]
				if got, ok := snap.Dataset.LookupAddr(p.addr); !ok || got.Prefix != p.want {
					dropped.Add(1)
				}
				release()
			}
		}(r)
	}
	for i := 0; i < swaps; i++ {
		next, err := build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c := new(atomic.Int64)
		instrumentCloser(next, c)
		counters = append(counters, c)
		st.Swap(next)
	}
	wg.Wait()

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d queries dropped across swaps, want 0", n)
	}
	// Every snapshot except the current one must be closed exactly once;
	// the current one not at all.
	for i, c := range counters {
		want := int64(1)
		if i == len(counters)-1 {
			want = 0
		}
		if got := c.Load(); got != want {
			t.Errorf("snapshot %d: Closer ran %d times, want %d", i, got, want)
		}
	}
}
