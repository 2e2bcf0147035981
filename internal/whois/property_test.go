package whois

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

// randomRecord fabricates a plausible record for a registry. Names use a
// constrained alphabet (registry data is ASCII-ish; the writers are not
// designed to escape arbitrary bytes).
func randomRecord(rng *rand.Rand, reg alloc.Registry) Record {
	words := []string{"Acme", "Nordic", "Pacific", "Data", "Net", "Star",
		"Telecom", "Cloud", "Systems", "Group", "GmbH", "Ltd", "Inc", "S.A.",
		"Communications", "Hosting", "Online"}
	nameLen := 1 + rng.Intn(4)
	parts := make([]string, nameLen)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	name := strings.Join(parts, " ")
	var p netip.Prefix
	if rng.Intn(4) == 0 {
		var a [16]byte
		a[0], a[1] = 0x2a, 0x00
		a[2], a[3] = byte(rng.Intn(256)), byte(rng.Intn(256))
		p = netip.PrefixFrom(netip.AddrFrom16(a), 32+rng.Intn(17)).Masked()
	} else {
		var a [4]byte
		a[0] = byte(1 + rng.Intn(220))
		a[1], a[2] = byte(rng.Intn(256)), byte(rng.Intn(256))
		p = netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(17)).Masked()
	}
	statusByZone := map[alloc.Registry][]string{
		alloc.ARIN:    {"Allocation", "Reallocation", "Reassignment"},
		alloc.RIPE:    {"ALLOCATED PA", "ASSIGNED PI", "ASSIGNED PA", "SUB-ALLOCATED PA"},
		alloc.APNIC:   {"ALLOCATED PORTABLE", "ASSIGNED NON-PORTABLE"},
		alloc.LACNIC:  {"ALLOCATED", "REASSIGNED"},
		alloc.AFRINIC: {"ALLOCATED PA", "ASSIGNED PA"},
	}
	zone := alloc.Parent(reg)
	statuses := statusByZone[zone]
	status := statuses[rng.Intn(len(statuses))]
	if !p.Addr().Is4() && zone == alloc.RIPE {
		status = "ALLOCATED-BY-RIR"
	}
	return Record{
		Prefixes: []netip.Prefix{p},
		Registry: reg,
		Status:   status,
		OrgName:  name,
		NetName:  fmt.Sprintf("NET-%d", rng.Intn(10000)),
		Country:  []string{"US", "DE", "JP", "BR", "ZA"}[rng.Intn(5)],
		Updated:  time.Date(2020+rng.Intn(5), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
	}
}

// Property: for every registry flavour, randomized records survive the
// write/parse round trip with prefix, status, name and date intact.
func TestRandomizedRoundTripAllFlavours(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	regs := []alloc.Registry{alloc.ARIN, alloc.RIPE, alloc.APNIC, alloc.AFRINIC,
		alloc.LACNIC, alloc.KRNIC, alloc.TWNIC, alloc.NICBR}
	for _, reg := range regs {
		for trial := 0; trial < 30; trial++ {
			db := NewDatabase()
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				rec := randomRecord(rng, reg)
				if reg == alloc.RIPE {
					rec.OrgID = fmt.Sprintf("ORG-R%d-RIPE", i)
					db.Orgs[rec.OrgID] = Org{ID: rec.OrgID, Name: rec.OrgName, Country: rec.Country}
					rec.OrgName = "" // resolved through the org object
				}
				db.Records = append(db.Records, rec)
			}
			var sb strings.Builder
			var err error
			switch alloc.Parent(reg) {
			case alloc.ARIN:
				err = WriteARIN(&sb, db)
			case alloc.LACNIC:
				err = WriteLACNIC(&sb, db)
			default:
				err = WriteRPSL(&sb, db, reg)
			}
			if err != nil {
				t.Fatalf("%s write: %v", reg, err)
			}
			var back *Database
			switch alloc.Parent(reg) {
			case alloc.ARIN:
				back, err = ParseARIN(strings.NewReader(sb.String()))
			case alloc.LACNIC:
				back, err = ParseLACNIC(strings.NewReader(sb.String()), reg)
			default:
				back, err = ParseRPSL(strings.NewReader(sb.String()), reg)
			}
			if err != nil {
				t.Fatalf("%s parse: %v\n%s", reg, err, sb.String())
			}
			back.ResolveOrgs()
			db.ResolveOrgs()
			if len(back.Records) != len(db.Records) {
				t.Fatalf("%s: %d records, want %d", reg, len(back.Records), len(db.Records))
			}
			for i := range db.Records {
				want, got := db.Records[i], back.Records[i]
				if got.Prefixes[0] != want.Prefixes[0] {
					t.Fatalf("%s record %d: prefix %v != %v", reg, i, got.Prefixes[0], want.Prefixes[0])
				}
				if got.Status != want.Status {
					t.Fatalf("%s record %d: status %q != %q", reg, i, got.Status, want.Status)
				}
				if got.OrgName != want.OrgName {
					t.Fatalf("%s record %d: org %q != %q", reg, i, got.OrgName, want.OrgName)
				}
				if !got.Updated.Equal(want.Updated) {
					t.Fatalf("%s record %d: updated %v != %v", reg, i, got.Updated, want.Updated)
				}
			}
		}
	}
}

// Property: Flatten is idempotent and stable under record duplication.
func TestFlattenIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		rec := randomRecord(rng, alloc.ARIN)
		db.Records = append(db.Records, rec)
		if rng.Intn(3) == 0 {
			db.Records = append(db.Records, rec) // exact duplicate
		}
	}
	a, b := views(db.Flatten()), views(db.Flatten())
	if len(a) != len(b) {
		t.Fatalf("flatten unstable: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flatten order unstable at %d", i)
		}
	}
}
