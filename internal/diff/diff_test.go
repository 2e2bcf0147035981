package diff

import (
	"context"
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// buildSnapshots generates a world, builds the dataset, evolves the
// world, builds the later dataset.
func buildSnapshots(t *testing.T, opts synth.EvolveOptions) (*prefix2org.Dataset, *prefix2org.Dataset) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir1 := t.TempDir()
	if err := w.WriteDir(dir1); err != nil {
		t.Fatal(err)
	}
	old, err := prefix2org.BuildFromDir(context.Background(), dir1, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.Evolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := w2.WriteDir(dir2); err != nil {
		t.Fatal(err)
	}
	cur, err := prefix2org.BuildFromDir(context.Background(), dir2, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return old, cur
}

func TestCompareIdenticalSnapshots(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	a, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Added)+len(rep.Removed)+len(rep.Transfers)+len(rep.Renames)+
		len(rep.OriginChanges)+len(rep.TypeChanges) != 0 {
		t.Errorf("identical snapshots diff non-empty: %s", rep.Summary())
	}
	if rep.Stable != len(a.Records) {
		t.Errorf("stable = %d, want %d", rep.Stable, len(a.Records))
	}
}

func TestCompareDetectsTransfers(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{Seed: 42, Transfers: 12, MonthsLater: 3})
	rep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Transfers move blocks between unrelated orgs: owner changes across
	// clusters must appear.
	if len(rep.Transfers) == 0 {
		t.Errorf("no transfers detected: %s", rep.Summary())
	}
	for _, ch := range rep.Transfers {
		if ch.OldOwner == ch.NewOwner {
			t.Errorf("transfer with identical owner: %+v", ch)
		}
	}
}

func TestCompareDetectsNewDelegations(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{Seed: 43, NewDelegations: 15})
	rep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Added) < 10 {
		t.Errorf("added = %d, want >= 10: %s", len(rep.Added), rep.Summary())
	}
	if len(rep.Removed) != 0 {
		t.Errorf("unexpected removals: %v", rep.Removed)
	}
}

func TestCompareDetectsRPKIAdoption(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{Seed: 44, NewAdopters: 20})
	rep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Adoption affects ROAs, not RC coverage, so no RPKINewlyCovered is
	// required; but the snapshots must stay comparable (mostly stable).
	if rep.Stable < len(old.Records)*8/10 {
		t.Errorf("too much churn from adoption alone: %s", rep.Summary())
	}
}

func TestCompareDetectsAcquisitions(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{Seed: 45, Acquisitions: 6})
	rep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OriginChanges) == 0 {
		t.Errorf("no origin migrations detected after acquisitions: %s", rep.Summary())
	}
	for _, oc := range rep.OriginChanges {
		if oc.OldOrigin == oc.NewOrigin {
			t.Errorf("origin change with identical origins: %+v", oc)
		}
	}
}

// TestCompareDeterministicOrder pins the ordering contract the lint
// determinism rule guards: every slice in a Report is sorted by prefix,
// and repeated comparisons of the same snapshots are deep-equal even
// though Compare builds its working set in map iteration order.
func TestCompareDeterministicOrder(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{
		Seed: 47, Transfers: 10, NewDelegations: 10, Acquisitions: 4, MonthsLater: 3,
	})
	first, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Added) == 0 || len(first.Transfers) == 0 {
		t.Fatalf("fixture produced no churn to order-check: %s", first.Summary())
	}
	assertSorted := func(name string, ps []netip.Prefix) {
		t.Helper()
		for i := 1; i < len(ps); i++ {
			if netx.Compare(ps[i-1], ps[i]) > 0 {
				t.Errorf("%s out of order: %s before %s", name, ps[i-1], ps[i])
			}
		}
	}
	assertSorted("Added", first.Added)
	assertSorted("Removed", first.Removed)
	ownerPrefixes := func(cs []OwnerChange) []netip.Prefix {
		ps := make([]netip.Prefix, len(cs))
		for i, c := range cs {
			ps[i] = c.Prefix
		}
		return ps
	}
	assertSorted("Transfers", ownerPrefixes(first.Transfers))
	assertSorted("Renames", ownerPrefixes(first.Renames))
	for i := 1; i < len(first.OriginChanges); i++ {
		if netx.Compare(first.OriginChanges[i-1].Prefix, first.OriginChanges[i].Prefix) > 0 {
			t.Errorf("OriginChanges out of order at %d", i)
		}
	}
	for i := 1; i < len(first.TypeChanges); i++ {
		if netx.Compare(first.TypeChanges[i-1].Prefix, first.TypeChanges[i].Prefix) > 0 {
			t.Errorf("TypeChanges out of order at %d", i)
		}
	}
	// Re-running the comparison must reproduce the report byte for byte;
	// map iteration order varies across runs, so any unsorted path shows
	// up as a flaky mismatch here.
	for i := 0; i < 5; i++ {
		again, err := Compare(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced a different report:\nfirst: %s\nagain: %s", i, first.Summary(), again.Summary())
		}
	}
}

// TestViewBackedMatchesEager pins that the merge walk reads a
// view-backed dataset in place: two snapshots opened with
// OpenSnapshotFile give the same Report and Changeset as the eager
// datasets they were saved from, and stay unmaterialized.
func TestViewBackedMatchesEager(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{
		Seed: 48, Transfers: 8, NewDelegations: 8, Acquisitions: 3, MonthsLater: 2,
	})
	open := func(ds *prefix2org.Dataset) *prefix2org.Dataset {
		t.Helper()
		path := filepath.Join(t.TempDir(), "snap.p2o")
		if err := ds.SaveBinaryFile(path); err != nil {
			t.Fatal(err)
		}
		view, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { view.Close() })
		if !view.Lazy() {
			t.Fatal("OpenSnapshotFile returned an eager dataset")
		}
		return view
	}
	oldView, curView := open(old), open(cur)

	wantRep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRep.Added) == 0 || len(wantRep.Transfers) == 0 {
		t.Fatalf("fixture produced no churn: %s", wantRep.Summary())
	}
	gotRep, err := Compare(oldView, curView)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("view-backed Report = %s, eager = %s", gotRep.Summary(), wantRep.Summary())
	}
	wantCS, err := Changes(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	gotCS, err := Changes(oldView, curView)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCS, wantCS) {
		t.Errorf("view-backed Changeset = %d prefix, %d org changes; eager = %d, %d",
			len(gotCS.Prefixes), len(gotCS.Orgs), len(wantCS.Prefixes), len(wantCS.Orgs))
	}
	if len(oldView.Records) != 0 || len(curView.Records) != 0 {
		t.Error("diffing materialized the view-backed datasets")
	}
}

func TestCompareNil(t *testing.T) {
	if _, err := Compare(nil, nil); err == nil {
		t.Error("nil datasets accepted")
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	old, cur := buildSnapshots(t, synth.EvolveOptions{Seed: 46, Transfers: 5, NewDelegations: 5})
	rep, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}
