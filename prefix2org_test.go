package prefix2org

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// figure1World builds the paper's Figure 1 scenario in-memory:
// ARIN delegates 206.238.0.0/16 to PSINet (Allocation); PSINet
// re-delegates the whole block to Tcloudnet (Reassignment); Tcloudnet
// announces it from its own AS.
func figure1World(t *testing.T) (*whois.Database, *bgp.Table, *rpki.Repository, *as2org.Dataset) {
	t.Helper()
	db := whois.NewDatabase()
	add := func(prefix, status, org string, when time.Time) {
		db.Records = append(db.Records, whois.Record{
			Prefixes: []netip.Prefix{mp(prefix)},
			Registry: alloc.ARIN, Status: status, OrgName: org, Updated: when,
		})
	}
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	add("206.238.0.0/16", "Allocation", "PSINet, Inc", t0)
	add("206.238.0.0/16", "Reassignment", "Tcloudnet, Inc", t0.AddDate(0, 1, 0))
	// An unrelated sibling block for contrast.
	add("206.200.0.0/16", "Allocation", "Other Networks LLC", t0)
	// A deeper chain: Allocation -> Re-Allocation -> Reassignment.
	add("65.0.0.0/12", "Allocation", "Verizon Business", t0)
	add("65.0.52.0/24", "Re-Allocation", "Bandwidth.com Inc.", t0)
	add("65.0.52.0/24", "Reassignment", "Ceva Inc", t0)

	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("206.238.0.0/16"), Origin: 399077}, // Tcloudnet's AS
		{Prefix: mp("206.200.0.0/16"), Origin: 65001},
		{Prefix: mp("65.0.52.0/24"), Origin: 701}, // Verizon originates for the customer
		{Prefix: mp("65.0.0.0/12"), Origin: 701},
	})

	repo := rpki.NewRepository()
	repo.AddCert(rpki.Certificate{SKI: "TA:ARIN", Subject: "arin-ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("206.0.0.0/8"), mp("65.0.0.0/8")}, TrustAnchor: true})
	repo.AddCert(rpki.Certificate{SKI: "VZ:1", AKI: "TA:ARIN", Subject: "verizon-acct", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("65.0.0.0/12")}})
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}

	asd := as2org.NewDataset()
	asd.AddAS(399077, "ORG-TCLOUD", "Tcloudnet, Inc", "US")
	asd.AddAS(701, "ORG-VZ", "Verizon Business", "US")
	asd.AddAS(65001, "ORG-OTHER", "Other Networks LLC", "US")
	return db, tbl, repo, asd
}

func TestFigure1OwnershipResolution(t *testing.T) {
	db, tbl, repo, asd := figure1World(t)
	ds, err := Build(context.Background(), db, tbl, repo, asd, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The re-assigned block: PSINet is Direct Owner, Tcloudnet the
	// Delegated Customer.
	rec, ok := ds.Lookup(mp("206.238.0.0/16"))
	if !ok {
		t.Fatal("206.238.0.0/16 unmapped")
	}
	if rec.DirectOwner != "PSINet, Inc" {
		t.Errorf("DirectOwner = %q", rec.DirectOwner)
	}
	if rec.DOType != "Allocation" || rec.RIR != "ARIN" {
		t.Errorf("DOType/RIR = %q/%q", rec.DOType, rec.RIR)
	}
	if len(rec.DelegatedCustomers) != 1 || rec.DelegatedCustomers[0] != "Tcloudnet, Inc" {
		t.Errorf("DCs = %v", rec.DelegatedCustomers)
	}
	if !rec.HasDistinctCustomer() {
		t.Error("distinct customer not detected")
	}
	// The plain allocation: DO == DC.
	rec, ok = ds.Lookup(mp("206.200.0.0/16"))
	if !ok {
		t.Fatal("206.200.0.0/16 unmapped")
	}
	if rec.DirectOwner != "Other Networks LLC" || rec.HasDistinctCustomer() {
		t.Errorf("plain allocation: %+v", rec)
	}
	if len(rec.DelegatedCustomers) != 1 || rec.DelegatedCustomers[0] != "Other Networks LLC" {
		t.Errorf("DO==DC expected: %v", rec.DelegatedCustomers)
	}
}

func TestListing1ChainResolution(t *testing.T) {
	db, tbl, repo, asd := figure1World(t)
	ds, err := Build(context.Background(), db, tbl, repo, asd, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := ds.Lookup(mp("65.0.52.0/24"))
	if !ok {
		t.Fatal("65.0.52.0/24 unmapped")
	}
	if rec.DirectOwner != "Verizon Business" {
		t.Errorf("DirectOwner = %q", rec.DirectOwner)
	}
	if rec.DOPrefix != mp("65.0.0.0/12") {
		t.Errorf("DOPrefix = %s", rec.DOPrefix)
	}
	// Hierarchical DC order: Re-Allocation (Bandwidth.com) before
	// Reassignment (Ceva), as in Listing 1.
	want := []string{"Bandwidth.com Inc.", "Ceva Inc"}
	if len(rec.DelegatedCustomers) != 2 {
		t.Fatalf("DCs = %v", rec.DelegatedCustomers)
	}
	for i := range want {
		if rec.DelegatedCustomers[i] != want[i] {
			t.Errorf("DC[%d] = %q, want %q", i, rec.DelegatedCustomers[i], want[i])
		}
	}
	if rec.DCTypes[0] != "Re-Allocation" || rec.DCTypes[1] != "Reassignment" {
		t.Errorf("DC types = %v", rec.DCTypes)
	}
	if rec.RPKICert == "" {
		t.Error("covering Verizon certificate not attached")
	}
	// The covering /12 itself: no distinct customer.
	rec, _ = ds.Lookup(mp("65.0.0.0/12"))
	if rec.HasDistinctCustomer() {
		t.Error("/12 should have DO==DC")
	}
}

func TestBuildRejectsNilInputs(t *testing.T) {
	if _, err := Build(context.Background(), nil, nil, nil, nil, nil, Options{}); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestARINLegacyMarking(t *testing.T) {
	db, tbl, repo, asd := figure1World(t)
	legacy := []netip.Prefix{mp("206.200.0.0/16")}
	ds, err := Build(context.Background(), db, tbl, repo, asd, legacy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := ds.Lookup(mp("206.200.0.0/16"))
	if rec.DOType != "Allocation-Legacy" {
		t.Errorf("DOType = %q, want Allocation-Legacy", rec.DOType)
	}
	// Non-listed blocks keep their type.
	rec, _ = ds.Lookup(mp("206.238.0.0/16"))
	if rec.DOType != "Allocation" {
		t.Errorf("DOType = %q, want Allocation", rec.DOType)
	}
}

func TestRIPELegacyNotSponsored(t *testing.T) {
	db := whois.NewDatabase()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	add := func(prefix, status, org string) {
		db.Records = append(db.Records, whois.Record{
			Prefixes: []netip.Prefix{mp(prefix)},
			Registry: alloc.RIPE, Status: status, OrgName: org, Updated: t0,
		})
	}
	add("31.0.0.0/16", "LEGACY", "Sponsored Legacy Holder")
	add("31.1.0.0/16", "LEGACY", "Unsponsored Legacy Holder")
	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("31.0.0.0/16"), Origin: 1},
		{Prefix: mp("31.1.0.0/16"), Origin: 2},
	})
	repo := rpki.NewRepository()
	repo.AddCert(rpki.Certificate{SKI: "TA:RIPE", Subject: "ripe-ta", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("31.0.0.0/8")}, TrustAnchor: true})
	// The sponsored holder has a member account certificate; the
	// unsponsored space sits in the shared legacy certificate.
	repo.AddCert(rpki.Certificate{SKI: "M:1", AKI: "TA:RIPE", Subject: "member-1", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("31.0.0.0/16")}})
	repo.AddCert(rpki.Certificate{SKI: "LG:1", AKI: "TA:RIPE", Subject: "ripe-legacy-unsponsored", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("31.1.0.0/16")}})
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), db, tbl, repo, as2org.NewDataset(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := ds.Lookup(mp("31.0.0.0/16"))
	if rec.DOType != "Legacy" {
		t.Errorf("sponsored legacy DOType = %q", rec.DOType)
	}
	rec, _ = ds.Lookup(mp("31.1.0.0/16"))
	if rec.DOType != "Legacy-Not-Sponsored" {
		t.Errorf("unsponsored legacy DOType = %q", rec.DOType)
	}
}

// End-to-end over the synthetic world, through the on-disk formats.
func buildWorldDataset(t testing.TB) (*synth.World, *Dataset) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
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
	return w, ds
}

func TestEndToEndCoverage(t *testing.T) {
	_, ds := buildWorldDataset(t)
	total := ds.Stats.IPv4Prefixes + ds.Stats.IPv6Prefixes
	if total == 0 {
		t.Fatal("no records")
	}
	// Paper: 99.96%+ coverage. The synthetic world is complete by
	// construction, so unmapped must be zero.
	if ds.Stats.Unmapped != 0 {
		t.Errorf("unmapped = %d", ds.Stats.Unmapped)
	}
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.DirectOwner == "" {
			t.Fatalf("record %s has empty Direct Owner", r.Prefix)
		}
		if r.BaseName == "" {
			t.Fatalf("record %s has empty base name", r.Prefix)
		}
		if r.FinalCluster == "" {
			t.Fatalf("record %s has no final cluster", r.Prefix)
		}
		if len(r.DelegatedCustomers) == 0 {
			t.Fatalf("record %s has no DC chain", r.Prefix)
		}
		if len(r.DelegatedCustomers) != len(r.DCTypes) || len(r.DelegatedCustomers) != len(r.DCPrefixes) {
			t.Fatalf("record %s has ragged DC fields", r.Prefix)
		}
		if !netx.Contains(r.DOPrefix, r.Prefix) {
			t.Fatalf("record %s: DO prefix %s does not cover it", r.Prefix, r.DOPrefix)
		}
		for _, dcp := range r.DCPrefixes {
			if !netx.Contains(r.DOPrefix, dcp) {
				t.Fatalf("record %s: DC prefix %s outside DO prefix %s", r.Prefix, dcp, r.DOPrefix)
			}
		}
	}
}

// Ground-truth agreement: for every org, the prefixes P2O assigns to the
// org's cluster must include all the org's owned prefixes (recall ~1).
func TestEndToEndGroundTruthRecall(t *testing.T) {
	w, ds := buildWorldDataset(t)
	totalOwned, found := 0, 0
	for _, ot := range w.Truth.Orgs {
		if len(ot.OwnedV4)+len(ot.OwnedV6) == 0 || ot.Kind == "customer" {
			continue
		}
		// Locate the org's cluster through any of its legal names.
		var c *Cluster
		for _, n := range ot.Names {
			if cc, ok := ds.ClusterOfOwner(n); ok {
				c = cc
				break
			}
		}
		if c == nil {
			totalOwned += len(ot.OwnedV4) + len(ot.OwnedV6)
			continue
		}
		member := map[netip.Prefix]bool{}
		for _, p := range c.Prefixes {
			member[p] = true
		}
		for _, p := range append(append([]netip.Prefix{}, ot.OwnedV4...), ot.OwnedV6...) {
			totalOwned++
			if member[p] {
				found++
			}
		}
	}
	if totalOwned == 0 {
		t.Fatal("no owned prefixes in truth")
	}
	recall := float64(found) / float64(totalOwned)
	if recall < 0.995 {
		t.Errorf("ground-truth recall = %.4f, want >= 0.995", recall)
	}
}

func TestEndToEndStatsShape(t *testing.T) {
	_, ds := buildWorldDataset(t)
	s := ds.Stats
	if s.DirectOwners == 0 || s.BaseNames == 0 || s.FinalClusters == 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	// Aggregation really happened: fewer final clusters than exact names,
	// and some clusters hold multiple names.
	if s.FinalClusters >= s.BaseClusters+1 {
		t.Errorf("final clusters %d vs base clusters %d", s.FinalClusters, s.BaseClusters)
	}
	if s.MultiNameClusters == 0 {
		t.Error("no multi-name clusters formed")
	}
	// Base-name cleaning reduced the name count (paper: ~12%).
	if s.NameCleaning.Refilled >= s.NameCleaning.Original {
		t.Errorf("cleaning did not reduce names: %+v", s.NameCleaning)
	}
	// IPv4 is re-delegated more than IPv6 (paper: 31.7% vs 17%).
	if s.PctV4DistinctDC <= s.PctV6DistinctDC {
		t.Errorf("distinct-DC percentages: v4 %.1f <= v6 %.1f", s.PctV4DistinctDC, s.PctV6DistinctDC)
	}
	// Partial RPKI coverage, v6 above v4 (paper: 88% vs 96.7%).
	if s.PctV4InRPKI <= 0 || s.PctV4InRPKI >= 100 {
		t.Errorf("v4 RPKI coverage = %.1f", s.PctV4InRPKI)
	}
	if s.PctV6InRPKI <= s.PctV4InRPKI {
		t.Errorf("RPKI coverage: v6 %.1f <= v4 %.1f", s.PctV6InRPKI, s.PctV4InRPKI)
	}
	// Multi-name clusters are few but hold disproportionate space.
	if s.PctV4SpaceInMultiName <= s.PctV4InMultiName {
		t.Errorf("multi-name space %.1f%% <= prefix share %.1f%%", s.PctV4SpaceInMultiName, s.PctV4InMultiName)
	}
}

func TestTopClustersOrderings(t *testing.T) {
	_, ds := buildWorldDataset(t)
	top := ds.TopClustersBySpace(10)
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].V4Space < top[i].V4Space {
			t.Error("TopClustersBySpace not descending")
		}
	}
	whoisTop := ds.WhoisNameClusters()
	as2orgTop := ds.AS2OrgClusters()
	if len(whoisTop) == 0 || len(as2orgTop) == 0 {
		t.Fatal("baseline rankings empty")
	}
	// Figure 4's shape: cumulative top-100 space under Prefix2Org >=
	// WHOIS-name clustering (aggregation can only grow the top groups).
	n := 100
	sum := func(cs []ClusterSpace) float64 {
		var s float64
		for i, c := range cs {
			if i >= n {
				break
			}
			s += c.V4Space
		}
		return s
	}
	if sum(ds.TopClustersBySpace(n)) < sum(whoisTop) {
		t.Error("P2O top-100 space below WHOIS-name top-100 space")
	}
	// Figure 5's shape: top-100 P2O clusters hold more distinct names
	// than the (by construction single-name) WHOIS clusters.
	nameSum := 0
	for i, c := range ds.TopClustersBySpace(n) {
		if i >= n {
			break
		}
		nameSum += c.NameCount
	}
	if nameSum <= n/2 {
		t.Errorf("top-%d P2O name count = %d, expected aggregation above %d", n, nameSum, n/2)
	}
}

func TestLookupMiss(t *testing.T) {
	_, ds := buildWorldDataset(t)
	if _, ok := ds.Lookup(mp("192.0.2.0/24")); ok {
		t.Error("lookup of unrouted documentation prefix succeeded")
	}
	if _, ok := ds.ClusterByID("no-such-cluster"); ok {
		t.Error("unknown cluster ID found")
	}
	if _, ok := ds.ClusterOfOwner("No Such Org LLC"); ok {
		t.Error("unknown owner found")
	}
}

// BuildFromDir with a live JPNIC WHOIS server: allocation types for JPNIC
// blocks resolve over RFC 3912 instead of the offline cache.
func TestBuildFromDirLiveJPNIC(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	// Remove the offline cache to force the live path.
	if err := os.Remove(filepath.Join(dir, "whois", whois.JPNICTypesFile)); err != nil {
		t.Fatal(err)
	}
	// Without a server the JPNIC records keep empty statuses and their
	// prefixes resolve through covering records or stay unmapped — the
	// build itself must still succeed.
	if _, err := BuildFromDir(context.Background(), dir, Options{}); err != nil {
		t.Fatalf("build without live server: %v", err)
	}
	addr, closeFn, err := w.StartJPNICServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	ds, err := BuildFromDir(context.Background(), dir, Options{JPNICWhoisAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	// JPNIC-zone routed prefixes must resolve with real types.
	found := false
	for i := range ds.Records {
		r := &ds.Records[i]
		if !r.Prefix.Addr().Is4() {
			continue
		}
		if b := r.Prefix.Addr().As4(); b[0] == 133 || b[0] == 210 {
			found = true
			if r.DOType == "" {
				t.Fatalf("JPNIC prefix %s lacks an allocation type", r.Prefix)
			}
		}
	}
	if !found {
		t.Skip("world has no routed JPNIC prefixes (unexpected at this seed)")
	}
}

func TestBuildFromDirMissingBGP(t *testing.T) {
	if _, err := BuildFromDir(context.Background(), t.TempDir(), Options{}); err == nil {
		t.Error("empty data dir accepted")
	}
}

// A prefix covered only by Delegated-Customer records (no Direct Owner
// delegation anywhere in the chain): the outermost customer becomes the
// owner of record rather than dropping the prefix.
func TestOwnershipWithoutDirectOwnerRecord(t *testing.T) {
	db := whois.NewDatabase()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	db.Records = append(db.Records,
		whois.Record{Prefixes: []netip.Prefix{mp("65.0.0.0/16")}, Registry: alloc.ARIN,
			Status: "Re-Allocation", OrgName: "Middleman LLC", Updated: t0},
		whois.Record{Prefixes: []netip.Prefix{mp("65.0.1.0/24")}, Registry: alloc.ARIN,
			Status: "Reassignment", OrgName: "Leaf Corp", Updated: t0},
	)
	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("65.0.1.0/24"), Origin: 1},
	})
	repo := rpki.NewRepository()
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), db, tbl, repo, as2org.NewDataset(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := ds.Lookup(mp("65.0.1.0/24"))
	if !ok {
		t.Fatal("prefix dropped despite having customer records")
	}
	if rec.DirectOwner != "Middleman LLC" {
		t.Errorf("owner of record = %q, want outermost customer", rec.DirectOwner)
	}
	if len(rec.DelegatedCustomers) != 2 || rec.DelegatedCustomers[1] != "Leaf Corp" {
		t.Errorf("DC chain = %v", rec.DelegatedCustomers)
	}
}

// Records with unknown allocation-type keywords are skipped; a prefix
// whose records are all unresolvable counts as unmapped, not a crash.
func TestUnresolvableStatusSkipped(t *testing.T) {
	db := whois.NewDatabase()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	db.Records = append(db.Records,
		whois.Record{Prefixes: []netip.Prefix{mp("65.0.0.0/16")}, Registry: alloc.ARIN,
			Status: "MYSTERY-TYPE", OrgName: "Ghost Corp", Updated: t0},
		whois.Record{Prefixes: []netip.Prefix{mp("66.0.0.0/16")}, Registry: alloc.ARIN,
			Status: "Allocation", OrgName: "Real Corp", Updated: t0},
	)
	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("65.0.0.0/16"), Origin: 1},
		{Prefix: mp("66.0.0.0/16"), Origin: 2},
	})
	repo := rpki.NewRepository()
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}
	ds, err := Build(context.Background(), db, tbl, repo, as2org.NewDataset(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Lookup(mp("65.0.0.0/16")); ok {
		t.Error("prefix with only unresolvable records was mapped")
	}
	if ds.Stats.Unmapped != 1 {
		t.Errorf("unmapped = %d, want 1", ds.Stats.Unmapped)
	}
	if _, ok := ds.Lookup(mp("66.0.0.0/16")); !ok {
		t.Error("resolvable prefix lost")
	}
}

// Two Direct-Owner-typed records at the same prefix (re-registered legacy
// space): resolution is deterministic and picks a Direct Owner.
func TestMultipleDirectOwnerRecordsDeterministic(t *testing.T) {
	build := func() *Dataset {
		db := whois.NewDatabase()
		t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		db.Records = append(db.Records,
			whois.Record{Prefixes: []netip.Prefix{mp("31.0.0.0/16")}, Registry: alloc.RIPE,
				Status: "LEGACY", OrgName: "Old Holder", Updated: t0},
			whois.Record{Prefixes: []netip.Prefix{mp("31.0.0.0/16")}, Registry: alloc.RIPE,
				Status: "ALLOCATED PA", OrgName: "New Member", Updated: t0.AddDate(1, 0, 0)},
		)
		tbl := bgp.NewTable([]bgp.Route{
			{Prefix: mp("31.0.0.0/16"), Origin: 1},
		})
		repo := rpki.NewRepository()
		if err := repo.Build(); err != nil {
			t.Fatal(err)
		}
		ds, err := Build(context.Background(), db, tbl, repo, as2org.NewDataset(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, _ := build().Lookup(mp("31.0.0.0/16"))
	b, _ := build().Lookup(mp("31.0.0.0/16"))
	if a.DirectOwner != b.DirectOwner || a.DOType != b.DOType {
		t.Errorf("nondeterministic DO pick: %q/%q vs %q/%q", a.DirectOwner, a.DOType, b.DirectOwner, b.DOType)
	}
	if a.DirectOwner == "" {
		t.Error("no Direct Owner resolved")
	}
}

// TestVerifyDelegated covers the footnote-2 check both ways: delegated
// files within /8 and /16 pass and are counted, and one delegation coarser
// than that — among reserved space and ASNs, which do not count — fails
// the build naming its registry.
func TestVerifyDelegated(t *testing.T) {
	ctx := context.Background()
	when := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	files := map[alloc.Registry]*delegated.File{
		alloc.ARIN: {Registry: alloc.ARIN, Serial: "20240901", Records: []delegated.Record{
			delegated.IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("23.0.0.0/8"), when, "allocated", "a"),
			delegated.IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("0.0.0.0/3"), when, "reserved", ""),
			delegated.ASNRecordFor(alloc.ARIN, "US", 701, when, "assigned", "a"),
		}},
		alloc.RIPE: {Registry: alloc.RIPE, Serial: "20240901", Records: []delegated.Record{
			delegated.IPv6RecordFor(alloc.RIPE, "DE", netx.MustParse("2a00::/16"), when, "allocated", "b"),
		}},
	}
	verify := func() (int64, error) {
		dir := t.TempDir()
		if err := delegated.WriteDir(dir, files); err != nil {
			t.Fatal(err)
		}
		span := obs.NewTrace("test").Start("verify-delegated")
		err := verifyDelegated(ctx, dir, span)
		return span.Count("files"), err
	}
	if n, err := verify(); err != nil || n != 2 {
		t.Errorf("delegations at the limits: %d files, %v", n, err)
	}
	ripe := files[alloc.RIPE]
	ripe.Records = append(ripe.Records, delegated.IPv6RecordFor(alloc.RIPE, "DE", netx.MustParse("2c00::/15"), when, "assigned", "b"))
	if _, err := verify(); err == nil || !strings.Contains(err.Error(), "RIPE delegated a block coarser") {
		t.Errorf("a /15 IPv6 delegation: err = %v", err)
	}
	if err := verifyDelegated(ctx, t.TempDir(), obs.NewTrace("test").Start("verify-delegated")); err != nil {
		t.Errorf("no delegated files: %v", err)
	}
}
