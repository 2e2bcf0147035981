package leasing

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/synth"
)

func TestDetectFindsSyntheticLeasingOrgs(t *testing.T) {
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Detect(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no leasing candidates detected")
	}
	// The synthetic world contains known leasing entities; they must rank
	// at (or very near) the top.
	leasingNames := map[string]bool{}
	for _, ot := range w.Truth.Orgs {
		if ot.Kind == "leasing" {
			for _, n := range ot.Names {
				leasingNames[strings.ToLower(n)] = true
			}
		}
	}
	if len(leasingNames) == 0 {
		t.Fatal("world has no leasing orgs")
	}
	found := false
	top := cands
	if len(top) > 3 {
		top = top[:3]
	}
	for _, c := range top {
		for _, n := range c.Cluster.OwnerNames {
			if leasingNames[n] {
				found = true
			}
		}
	}
	if !found {
		var names []string
		for _, c := range top {
			names = append(names, c.Cluster.OwnerNames...)
		}
		t.Errorf("known leasing orgs not in top-3 candidates; top = %v, leasing = %v", names, leasingNames)
	}
	// Candidate invariants.
	for _, c := range cands {
		if c.DistinctOrigins < DefaultOptions().MinOrigins {
			t.Errorf("candidate %s below MinOrigins", c.Cluster.ID)
		}
		if c.ForeignOriginShare < DefaultOptions().MinForeignShare {
			t.Errorf("candidate %s below MinForeignShare", c.Cluster.ID)
		}
		if c.V4Addresses() <= 0 {
			t.Errorf("candidate %s has no v4 space", c.Cluster.ID)
		}
	}
	// Sorted by descending score.
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Score < cands[i].Score {
			t.Error("candidates not sorted by score")
		}
	}
	// A read Dataset — the built one's v2 snapshot, opened — gives the
	// same candidates.
	path := filepath.Join(t.TempDir(), "snap.p2o")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	view, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Detect(view, DefaultOptions()); err != nil || !reflect.DeepEqual(got, cands) {
		t.Errorf("Detect on a view: %d candidates, %v; built gives %d", len(got), err, len(cands))
	}
}

func TestDetectNil(t *testing.T) {
	if _, err := Detect(nil, Options{}); err == nil {
		t.Error("nil dataset accepted")
	}
}
