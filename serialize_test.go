package prefix2org

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var sb strings.Builder
	if err := ds.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != len(ds.Records) {
		t.Fatalf("records = %d, want %d", back.NumRecords(), len(ds.Records))
	}
	if back.NumClusters() != len(ds.Clusters) {
		t.Fatalf("clusters = %d, want %d", back.NumClusters(), len(ds.Clusters))
	}
	if back.Stats != ds.Stats {
		t.Error("stats did not round-trip")
	}
	for i := range ds.Records {
		a, b := &ds.Records[i], back.RecordAt(i)
		if a.Prefix != b.Prefix || a.DirectOwner != b.DirectOwner ||
			a.DOType != b.DOType || a.FinalCluster != b.FinalCluster ||
			a.RPKICert != b.RPKICert || a.OriginASN != b.OriginASN {
			t.Fatalf("record %d diverged:\n%+v\n%+v", i, a, b)
		}
		if len(a.DelegatedCustomers) != len(b.DelegatedCustomers) {
			t.Fatalf("record %d DC chain diverged", i)
		}
	}
	// Indexes rebuilt: point lookups work.
	p := ds.Records[0].Prefix
	if _, ok := back.Lookup(p); !ok {
		t.Error("lookup broken after reload")
	}
	owner := ds.Records[0].DirectOwner
	ca, aok := ds.ClusterOfOwner(owner)
	cb, bok := back.ClusterOfOwner(owner)
	if aok != bok || (aok && ca.ID != cb.ID) {
		t.Error("cluster-by-owner broken after reload")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	_, ds := buildWorldDataset(t)
	path := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != len(ds.Records) {
		t.Errorf("records = %d", back.NumRecords())
	}
	if _, err := LoadFile(context.Background(), filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSnapshotLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json\n",
		`{"kind":"wat"}` + "\n",
		`{"kind":"record","prefix":"banana"}` + "\n",
		`{"kind":"cluster","id":"x","prefixes":["banana"]}` + "\n",
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load accepted %q", in)
		}
	}
}

func TestAblationOptions(t *testing.T) {
	w, _ := buildWorldDataset(t)
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	build := func(opts Options) *Dataset {
		ds, err := BuildFromDir(t.Context(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	full := build(Options{})
	noR := build(Options{DisableRPKIClusters: true})
	noA := build(Options{DisableASNClusters: true})
	wOnly := build(Options{DisableRPKIClusters: true, DisableASNClusters: true})
	noClean := build(Options{DisableNameCleaning: true, DisableRPKIClusters: false})

	// W-only clustering degenerates to exact names: one cluster per name.
	if wOnly.Stats.FinalClusters != wOnly.Stats.BaseClusters {
		t.Errorf("W-only clusters %d != base clusters %d", wOnly.Stats.FinalClusters, wOnly.Stats.BaseClusters)
	}
	if wOnly.Stats.MultiNameClusters != 0 {
		t.Errorf("W-only produced %d multi-name clusters", wOnly.Stats.MultiNameClusters)
	}
	// Each single signal aggregates less than (or equal to) both.
	if full.Stats.FinalClusters > noR.Stats.FinalClusters || full.Stats.FinalClusters > noA.Stats.FinalClusters {
		t.Errorf("full clustering (%d) aggregated less than an ablation (noR %d, noA %d)",
			full.Stats.FinalClusters, noR.Stats.FinalClusters, noA.Stats.FinalClusters)
	}
	if noR.Stats.FinalClusters > wOnly.Stats.FinalClusters || noA.Stats.FinalClusters > wOnly.Stats.FinalClusters {
		t.Error("single-signal ablation aggregated less than W-only")
	}
	// Without cleaning, base names equal exact names and no names merge
	// (different exact names can never share a group key).
	if noClean.Stats.MultiNameClusters != 0 {
		t.Errorf("no-cleaning run merged %d multi-name clusters", noClean.Stats.MultiNameClusters)
	}
	if noClean.Stats.BaseNames != noClean.Stats.DirectOwners {
		t.Errorf("no-cleaning base names %d != owners %d", noClean.Stats.BaseNames, noClean.Stats.DirectOwners)
	}
}

// TestLoadRejectsUnevenCustomerChain drops one record's DC types from a
// JSON snapshot: the record then names customers without their types,
// and Load must refuse it rather than hand the serve path a chain it
// would index past the end.
func TestLoadRejectsUnevenCustomerChain(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var sb strings.Builder
	if err := ds.Save(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	dropped := false
	for i, line := range lines {
		var rec map[string]any
		if !strings.Contains(line, `"kind":"record"`) || json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if types, _ := rec["DC Allocation Type(s)"].([]any); len(types) > 0 {
			delete(rec, "DC Allocation Type(s)")
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines[i], dropped = string(b), true
			break
		}
	}
	if !dropped {
		t.Fatal("no record with DC types: the world tests nothing")
	}
	if _, err := Load(strings.NewReader(strings.Join(lines, "\n"))); err == nil {
		t.Fatal("a JSON record without its DC types loaded without error")
	}
}
