package prefix2org

import (
	"context"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// TestPipelineInvariantsAcrossSeeds rebuilds the pipeline over several
// independently seeded worlds and checks every invariant DESIGN.md §5
// promises, so the guarantees are not an artifact of one lucky seed.
func TestPipelineInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	for _, seed := range []int64{1, 77, 20240901} {
		seed := seed
		t.Run(strings.ReplaceAll(t.Name(), "/", "_"), func(t *testing.T) {
			w, err := synth.Generate(synth.Config{Seed: seed, NumOrgs: 200, Collectors: 2})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := w.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			ds, err := BuildFromDir(context.Background(), dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, ds)
		})
	}
}

func checkInvariants(t *testing.T, ds *Dataset) {
	t.Helper()
	if len(ds.Records) == 0 {
		t.Fatal("empty dataset")
	}
	clusterPrefixes := map[string]map[string]bool{}
	for _, c := range ds.Clusters {
		set := map[string]bool{}
		for _, p := range c.Prefixes {
			set[p.String()] = true
		}
		clusterPrefixes[c.ID] = set
		// Every cluster has at least one owner name and one prefix.
		if len(c.OwnerNames) == 0 || len(c.Prefixes) == 0 {
			t.Fatalf("degenerate cluster %s", c.ID)
		}
		// Owner names are sorted and unique.
		for i := 1; i < len(c.OwnerNames); i++ {
			if c.OwnerNames[i-1] >= c.OwnerNames[i] {
				t.Fatalf("cluster %s owner names not strictly sorted", c.ID)
			}
		}
	}
	for i := range ds.Records {
		r := &ds.Records[i]
		// Every record has a Direct Owner with a covering DO prefix.
		if r.DirectOwner == "" {
			t.Fatalf("%s: empty Direct Owner", r.Prefix)
		}
		if !r.DOPrefix.Contains(r.Prefix.Addr()) || r.DOPrefix.Bits() > r.Prefix.Bits() {
			t.Fatalf("%s: DO prefix %s does not cover", r.Prefix, r.DOPrefix)
		}
		// DC chain is ordered: each holder's block contains the next.
		for j := 1; j < len(r.DCPrefixes); j++ {
			prev, cur := r.DCPrefixes[j-1], r.DCPrefixes[j]
			if !prev.Contains(cur.Addr()) || prev.Bits() > cur.Bits() {
				t.Fatalf("%s: DC chain broken at %d: %s then %s", r.Prefix, j, prev, cur)
			}
		}
		// If there is no distinct customer, the single DC is the DO.
		if !r.HasDistinctCustomer() && len(r.DelegatedCustomers) > 0 {
			if r.DelegatedCustomers[len(r.DelegatedCustomers)-1] != r.DirectOwner {
				t.Fatalf("%s: non-distinct DC chain does not end at the DO", r.Prefix)
			}
		}
		// The record's cluster exists and contains the prefix.
		set, ok := clusterPrefixes[r.FinalCluster]
		if !ok {
			t.Fatalf("%s: cluster %s missing", r.Prefix, r.FinalCluster)
		}
		if !set[r.Prefix.String()] {
			t.Fatalf("%s: not a member of its own cluster %s", r.Prefix, r.FinalCluster)
		}
		// The DO's owner name maps back to the same cluster.
		if c, ok := ds.ClusterOfOwner(r.DirectOwner); !ok || c.ID != r.FinalCluster {
			t.Fatalf("%s: owner lookup diverges from record cluster", r.Prefix)
		}
		// Base name is non-empty and lower case.
		if r.BaseName == "" || r.BaseName != strings.ToLower(r.BaseName) {
			t.Fatalf("%s: bad base name %q", r.Prefix, r.BaseName)
		}
	}
	// Stats agree with the record set.
	v4, v6 := 0, 0
	for i := range ds.Records {
		if ds.Records[i].Prefix.Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	if ds.Stats.IPv4Prefixes != v4 || ds.Stats.IPv6Prefixes != v6 {
		t.Fatalf("stats prefix counts diverge: %d/%d vs %d/%d",
			ds.Stats.IPv4Prefixes, ds.Stats.IPv6Prefixes, v4, v6)
	}
	if ds.Stats.FinalClusters != len(ds.Clusters) {
		t.Fatalf("stats cluster count diverges")
	}
	// Snapshot round trip preserves invariants.
	var sb strings.Builder
	if err := ds.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != len(ds.Records) || back.NumClusters() != len(ds.Clusters) {
		t.Fatal("snapshot round trip lost data")
	}
}

// TestPipelineDeterministic: two builds over the same data directory must
// produce byte-identical snapshots (cluster IDs, record order, stats).
func TestPipelineDeterministic(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		ds, err := BuildFromDir(context.Background(), dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := ds.Save(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if snap() != snap() {
		t.Fatal("two builds over identical inputs diverge")
	}
}
