package casestudy

import (
	"context"
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// scenario: ISP (AS100, RPKI adopter) owns 10.0.0.0/12 and signs ROAs for
// it; it also originates two customer-owned PI blocks without ROAs.
// NoASN Corp owns 12.0.0.0/16 but has no ASN; the ISP originates it.
func scenario(t *testing.T) (*prefix2org.Dataset, *rpki.Repository, *as2org.Dataset) {
	t.Helper()
	db := whois.NewDatabase()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	add := func(prefix, org string) {
		db.Records = append(db.Records, whois.Record{
			Prefixes: []netip.Prefix{mp(prefix)},
			Registry: alloc.ARIN, Status: "Allocation", OrgName: org, Updated: t0,
		})
	}
	add("10.0.0.0/12", "Backbone ISP Inc")
	add("11.0.0.0/16", "Customer One LLC")
	add("11.1.0.0/16", "Customer Two LLC")
	add("12.0.0.0/16", "NoASN Corp")

	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("10.0.0.0/12"), Origin: 100},
		{Prefix: mp("10.1.0.0/16"), Origin: 100}, // ISP more-specific
		{Prefix: mp("11.0.0.0/16"), Origin: 100}, // customer PI via ISP
		{Prefix: mp("11.1.0.0/16"), Origin: 100}, // customer PI via ISP
		{Prefix: mp("12.0.0.0/16"), Origin: 100}, // NoASN holder via ISP
	})

	repo := rpki.NewRepository()
	repo.AddCert(rpki.Certificate{SKI: "TA", Subject: "arin-ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8"), mp("11.0.0.0/8"), mp("12.0.0.0/8")}, TrustAnchor: true})
	repo.AddCert(rpki.Certificate{SKI: "ISP", AKI: "TA", Subject: "isp-account", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/12")}})
	repo.AddROA(rpki.ROA{Prefix: mp("10.0.0.0/12"), MaxLength: 16, ASN: 100, CertSKI: "ISP"})
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}

	asd := as2org.NewDataset()
	asd.AddAS(100, "ORG-ISP", "Backbone ISP Inc", "US")
	// Customer One has its own (idle) ASN; Customer Two and NoASN don't.
	asd.AddAS(200, "ORG-C1", "Customer One LLC", "US")

	ds, err := prefix2org.Build(context.Background(), db, tbl, repo, asd, nil, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, repo, asd
}

func TestROACoverageDisparity(t *testing.T) {
	ds, repo, asd := scenario(t)
	rows, err := ROACoverage(ds, repo, asd, 1)
	if err != nil {
		t.Fatal(err)
	}
	var isp *ROARow
	for i := range rows {
		if rows[i].ASN == 100 {
			isp = &rows[i]
		}
	}
	if isp == nil {
		t.Fatal("AS100 missing from coverage rows")
	}
	// Own prefixes: 10.0.0.0/12 and 10.1.0.0/16, both ROA-covered -> 100%.
	if isp.OwnCount != 2 || isp.OwnPct() != 100 {
		t.Errorf("own = %d @ %.1f%%, want 2 @ 100%%", isp.OwnCount, isp.OwnPct())
	}
	// Origin view: 5 prefixes, only 2 covered -> 40%.
	if isp.OriginCount != 5 {
		t.Errorf("origin count = %d, want 5", isp.OriginCount)
	}
	if isp.OriginPct() != 40 {
		t.Errorf("origin pct = %.1f, want 40", isp.OriginPct())
	}
	if isp.Disparity() != 60 {
		t.Errorf("disparity = %.1f, want 60", isp.Disparity())
	}
}

func TestROACoverageMinPrefixFilter(t *testing.T) {
	ds, repo, asd := scenario(t)
	rows, err := ROACoverage(ds, repo, asd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("min-prefix filter ignored: %v", rows)
	}
	if _, err := ROACoverage(nil, nil, nil, 1); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestOrgsWithoutASN(t *testing.T) {
	ds, _, asd := scenario(t)
	rep, err := OrgsWithoutASN(ds, asd, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Clusters: ISP, Customer One (has ASN in AS2Org), Customer Two,
	// NoASN Corp. Without ASN: Customer Two + NoASN Corp.
	if rep.TotalClusters != 4 {
		t.Fatalf("total clusters = %d", rep.TotalClusters)
	}
	if rep.NoASNClusters != 2 {
		t.Errorf("no-ASN clusters = %d, want 2", rep.NoASNClusters)
	}
	names := map[string]bool{}
	for _, o := range rep.Top {
		if len(o.Cluster.OwnerNames) > 0 {
			names[o.Cluster.OwnerNames[0]] = true
		}
		if o.OriginASNs == 0 {
			t.Errorf("no-ASN org %v has no originating ASNs", o.Cluster.OwnerNames)
		}
	}
	if !names["noasn corp"] || !names["customer two llc"] {
		t.Errorf("top = %v", names)
	}
	if names["backbone isp inc"] || names["customer one llc"] {
		t.Errorf("ASN-holding org classified as no-ASN: %v", names)
	}
	if rep.PctClusters() != 50 {
		t.Errorf("pct clusters = %.1f, want 50", rep.PctClusters())
	}
	if _, err := OrgsWithoutASN(nil, nil, 1); err == nil {
		t.Error("nil inputs accepted")
	}
}

// TestCaseStudiesOnAView: both case studies answer the same on a read
// Dataset — the built one's v2 snapshot, opened — as on the built one.
func TestCaseStudiesOnAView(t *testing.T) {
	ds, repo, asd := scenario(t)
	path := filepath.Join(t.TempDir(), "snap.p2o")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	view, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := ROACoverage(ds, repo, asd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gotRows, err := ROACoverage(view, repo, asd, 1); err != nil || !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("ROACoverage on a view = %+v, %v; built gives %+v", gotRows, err, wantRows)
	}
	wantRep, err := OrgsWithoutASN(ds, asd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gotRep, err := OrgsWithoutASN(view, asd, 10); err != nil || !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("OrgsWithoutASN on a view = %+v, %v; built gives %+v", gotRep, err, wantRep)
	}
}
