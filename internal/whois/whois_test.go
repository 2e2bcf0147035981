package whois

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

func TestParseBlockSpec(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"193.0.0.0/21", []string{"193.0.0.0/21"}},
		{"193.0.0.0 - 193.0.7.255", []string{"193.0.0.0/21"}},
		{"193.0.0.0-193.0.7.255", []string{"193.0.0.0/21"}},
		{"2001:db8::/32", []string{"2001:db8::/32"}},
		{"2001:db8:: - 2001:db8:ffff:ffff:ffff:ffff:ffff:ffff", []string{"2001:db8::/32"}},
		{"10.0.0.0 - 10.0.2.255", []string{"10.0.0.0/23", "10.0.2.0/24"}},
		{"10.1.2.3", []string{"10.1.2.3/32"}},
	}
	for _, c := range cases {
		got, err := parseBlockSpec(c.in)
		if err != nil {
			t.Errorf("parseBlockSpec(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseBlockSpec(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Errorf("parseBlockSpec(%q)[%d] = %s, want %s", c.in, i, got[i], c.want[i])
			}
		}
	}
	for _, bad := range []string{"", "banana", "10.0.0.9 - 10.0.0.1", "10.0.0.0 - banana"} {
		if _, err := parseBlockSpec(bad); err == nil {
			t.Errorf("parseBlockSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestParseTime pins every accepted form — whichever layout parseTime
// tries first — and the error text for what none accepts.
func TestParseTime(t *testing.T) {
	utc := func(y int, mo time.Month, d, h, mi, sec int) time.Time {
		return time.Date(y, mo, d, h, mi, sec, 0, time.UTC)
	}
	for _, c := range []struct {
		in   string
		want time.Time
	}{
		{"2024-06-01T10:00:00Z", utc(2024, 6, 1, 10, 0, 0)},
		{"2024-06-01T10:00:00.5Z", utc(2024, 6, 1, 10, 0, 0).Add(500 * time.Millisecond)},
		{"2024-06-01T10:00:00+02:00", utc(2024, 6, 1, 8, 0, 0)},
		{"2024-05-01", utc(2024, 5, 1, 0, 0, 0)},
		{"20240501", utc(2024, 5, 1, 0, 0, 0)},
		{"2024-05-01 23:59:58", utc(2024, 5, 1, 23, 59, 58)},
		{"  2024-05-01\t", utc(2024, 5, 1, 0, 0, 0)},
		{"noc@example.net 20240501", utc(2024, 5, 1, 0, 0, 0)},
		{"a b c 20240501", utc(2024, 5, 1, 0, 0, 0)},
		// The shape of one layout, the content of the last-field rule.
		{"x@y.zz 20240501", utc(2024, 5, 1, 0, 0, 0)},            // 15 bytes
		{"hostmaster 20240501", utc(2024, 5, 1, 0, 0, 0)},        // 19 bytes, a space at 10
		{"someone@ripe.net 20240501", utc(2024, 5, 1, 0, 0, 0)},  // longer than 10, no T at 10
		{"0123456789T@x.net 20240501", utc(2024, 5, 1, 0, 0, 0)}, // a T at 10
	} {
		got, err := parseTime(c.in)
		if err != nil {
			t.Errorf("parseTime(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("parseTime(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		"", "not a time", "2024-13-01", "20241301", "2024/05/01", "24-05-01", "2024-05-01T", "2024-5-1",
		"2024-05-01 25:00:00", "2024-05-0110:00:00Z", "1234567", "123456789", "noc@example.net", "noc@example.net 2024-05-01",
	} {
		_, err := parseTime(bad)
		if want := fmt.Sprintf("whois: unrecognized timestamp %q", strings.TrimSpace(bad)); err == nil || err.Error() != want {
			t.Errorf("parseTime(%q) error = %v, want %s", bad, err, want)
		}
	}
}

const ripeSample = `% RIPE bulk whois test data

inetnum:      193.0.0.0 - 193.0.7.255
netname:      EXAMPLE-NET
org:          ORG-EX1-RIPE
country:      DE
status:       ALLOCATED PA
last-modified: 2024-06-01T10:00:00Z

inetnum:      193.0.2.0 - 193.0.2.255
netname:      EXAMPLE-CUST
descr:        legacy descr only
country:      DE
status:       ASSIGNED PA
changed:      noc@example.net 20240315

inet6num:     2001:db8::/32
netname:      EXAMPLE-V6
org:          ORG-EX1-RIPE
status:       ALLOCATED-BY-RIR
last-modified: 2024-06-02T10:00:00Z

organisation: ORG-EX1-RIPE
org-name:     Example Networks GmbH
country:      DE
`

func TestParseRPSLRipe(t *testing.T) {
	db, err := ParseRPSL(strings.NewReader(ripeSample), alloc.RIPE)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(db.Records))
	}
	db.ResolveOrgs()
	r0 := db.Records[0]
	if r0.OrgName != "Example Networks GmbH" {
		t.Errorf("org indirection not resolved: %q", r0.OrgName)
	}
	if r0.Status != "ALLOCATED PA" || r0.NetName != "EXAMPLE-NET" || r0.Country != "DE" {
		t.Errorf("record fields wrong: %+v", r0)
	}
	if len(r0.Prefixes) != 1 || r0.Prefixes[0].String() != "193.0.0.0/21" {
		t.Errorf("range not converted: %v", r0.Prefixes)
	}
	if r0.Updated.Format("2006-01-02") != "2024-06-01" {
		t.Errorf("last-modified not parsed: %v", r0.Updated)
	}
	r1 := db.Records[1]
	if r1.OrgName != "legacy descr only" {
		t.Errorf("descr fallback failed: %q", r1.OrgName)
	}
	if r1.Updated.Format("2006-01-02") != "2024-03-15" {
		t.Errorf("changed not parsed: %v", r1.Updated)
	}
	r2 := db.Records[2]
	if r2.Prefixes[0].String() != "2001:db8::/32" {
		t.Errorf("inet6num wrong: %v", r2.Prefixes)
	}
	if ty, err := r2.Type(); err != nil || !ty.DirectOwner() {
		t.Errorf("v6 type resolution: %v %v", ty, err)
	}
}

const apnicSample = `inetnum: 203.0.0.0 - 203.0.127.255
netname: ACME-AP
descr: Acme Telecom Pty Ltd
descr: Level 5, 100 George St Sydney
country: AU
status: ALLOCATED PORTABLE
changed: apnic@acme.example 20240110
`

func TestParseRPSLAPNICDescrName(t *testing.T) {
	db, err := ParseRPSL(strings.NewReader(apnicSample), alloc.APNIC)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Records) != 1 {
		t.Fatalf("records = %d", len(db.Records))
	}
	if db.Records[0].OrgName != "Acme Telecom Pty Ltd" {
		t.Errorf("descr name = %q", db.Records[0].OrgName)
	}
}

func TestParseRPSLContinuationLines(t *testing.T) {
	in := "inetnum: 10.0.0.0\n+ - 10.0.0.255\nstatus: ALLOCATED PA\ndescr: Foo\n  Bar AG\n"
	db, err := ParseRPSL(strings.NewReader(in), alloc.APNIC)
	if err != nil {
		t.Fatal(err)
	}
	if db.Records[0].OrgName != "Foo Bar AG" {
		t.Errorf("continuation merge = %q", db.Records[0].OrgName)
	}
	if db.Records[0].Prefixes[0].String() != "10.0.0.0/24" {
		t.Errorf("continued range = %v", db.Records[0].Prefixes)
	}
}

func TestParseRPSLErrors(t *testing.T) {
	if _, err := ParseRPSL(strings.NewReader("inetnum: banana\nstatus: X\n"), alloc.RIPE); err == nil {
		t.Error("bad inetnum accepted")
	}
	if _, err := ParseRPSL(strings.NewReader("no colon line\n"), alloc.RIPE); err == nil {
		t.Error("malformed attribute accepted")
	}
	if _, err := ParseRPSL(strings.NewReader("  leading continuation\n"), alloc.RIPE); err == nil {
		t.Error("orphan continuation accepted")
	}
}

const arinSample = `# test

NetRange: 206.238.0.0 - 206.238.255.255
CIDR: 206.238.0.0/16
NetName: PSINET-B3
NetType: Allocation
OrgName: PSINet, Inc.
OrgId: PSI
Updated: 2024-05-01

NetRange: 206.238.0.0 - 206.238.255.255
NetName: TCLOUD
NetType: Reassignment
OrgName: Tcloudnet, Inc
Updated: 2024-05-02
`

func TestParseARIN(t *testing.T) {
	db, err := ParseARIN(strings.NewReader(arinSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(db.Records))
	}
	r0 := db.Records[0]
	if r0.OrgName != "PSINet, Inc." || r0.Status != "Allocation" || r0.OrgID != "PSI" {
		t.Errorf("r0 = %+v", r0)
	}
	if r0.Prefixes[0].String() != "206.238.0.0/16" {
		t.Errorf("CIDR preferred: %v", r0.Prefixes)
	}
	r1 := db.Records[1]
	if r1.Prefixes[0].String() != "206.238.0.0/16" {
		t.Errorf("NetRange fallback: %v", r1.Prefixes)
	}
	if ty, err := r1.Type(); err != nil || ty.DirectOwner() {
		t.Errorf("Reassignment should be DC: %v %v", ty, err)
	}
}

func TestParseARINMultiCIDR(t *testing.T) {
	in := "NetRange: 10.0.0.0 - 10.0.2.255\nCIDR: 10.0.0.0/23, 10.0.2.0/24\nNetType: Allocation\nOrgName: X\n"
	db, err := ParseARIN(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Records[0].Prefixes) != 2 {
		t.Errorf("multi-CIDR = %v", db.Records[0].Prefixes)
	}
}

func TestParseARINErrors(t *testing.T) {
	if _, err := ParseARIN(strings.NewReader("NetType: Allocation\nOrgName: X\n")); err == nil {
		t.Error("block without NetRange accepted")
	}
	if _, err := ParseARIN(strings.NewReader("garbage line\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

const lacnicSample = `% test

inetnum: 200.160.0.0/20
status: allocated
owner: Nucleo de Informacao e Coordenacao do Ponto BR
ownerid: BR-NUIC-LACNIC
country: BR
changed: 20240501

inet6num: 2801:80::/32
status: allocated
owner: Nucleo de Informacao e Coordenacao do Ponto BR
country: BR
changed: 20240501
`

func TestParseLACNIC(t *testing.T) {
	db, err := ParseLACNIC(strings.NewReader(lacnicSample), alloc.NICBR)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Records) != 2 {
		t.Fatalf("records = %d", len(db.Records))
	}
	if db.Records[0].Registry != alloc.NICBR {
		t.Errorf("registry = %s", db.Records[0].Registry)
	}
	if ty, err := db.Records[0].Type(); err != nil || !ty.DirectOwner() || ty.Registry != alloc.LACNIC {
		t.Errorf("NIC.br allocated should resolve via LACNIC: %v %v", ty, err)
	}
	if db.Records[1].Prefixes[0].String() != "2801:80::/32" {
		t.Errorf("v6 = %v", db.Records[1].Prefixes)
	}
}

func TestParseLACNICWrongZone(t *testing.T) {
	if _, err := ParseLACNIC(strings.NewReader(""), alloc.ARIN); err == nil {
		t.Error("ARIN accepted by LACNIC parser")
	}
}

func TestRoundTripRPSL(t *testing.T) {
	for _, reg := range []alloc.Registry{alloc.RIPE, alloc.APNIC, alloc.AFRINIC, alloc.KRNIC, alloc.TWNIC} {
		db := NewDatabase()
		db.Records = append(db.Records,
			Record{
				Prefixes: []netip.Prefix{netx.MustParse("193.0.0.0/21")},
				Registry: reg, Status: "ALLOCATED PA", NetName: "N1", Country: "DE",
				OrgName: "Example Networks GmbH", OrgID: "ORG-EX1",
				Updated: time.Date(2024, 6, 1, 10, 0, 0, 0, time.UTC),
			},
			Record{
				Prefixes: []netip.Prefix{netx.MustParse("2001:db8::/32")},
				Registry: reg, Status: "ALLOCATED-BY-RIR", NetName: "N2",
				OrgName: "Example Networks GmbH", OrgID: "ORG-EX1",
				Updated: time.Date(2024, 6, 2, 10, 0, 0, 0, time.UTC),
			},
		)
		if reg == alloc.APNIC || reg == alloc.KRNIC || reg == alloc.TWNIC {
			db.Records[0].Status = "ALLOCATED PORTABLE"
			db.Records[1].Status = "ALLOCATED PORTABLE"
		}
		db.Orgs["ORG-EX1"] = Org{ID: "ORG-EX1", Name: "Example Networks GmbH", Country: "DE"}
		var sb strings.Builder
		if err := WriteRPSL(&sb, db, reg); err != nil {
			t.Fatalf("%s: write: %v", reg, err)
		}
		back, err := ParseRPSL(strings.NewReader(sb.String()), reg)
		if err != nil {
			t.Fatalf("%s: parse: %v", reg, err)
		}
		back.ResolveOrgs()
		if len(back.Records) != 2 {
			t.Fatalf("%s: roundtrip records = %d", reg, len(back.Records))
		}
		for i := range back.Records {
			got, want := back.Records[i], db.Records[i]
			if got.Prefixes[0] != want.Prefixes[0] || got.Status != want.Status ||
				got.OrgName != want.OrgName || !got.Updated.Equal(want.Updated) {
				t.Errorf("%s: record %d roundtrip: got %+v want %+v", reg, i, got, want)
			}
		}
	}
}

func TestRoundTripARIN(t *testing.T) {
	db := NewDatabase()
	db.Records = append(db.Records, Record{
		Prefixes: []netip.Prefix{netx.MustParse("206.238.0.0/16")},
		Registry: alloc.ARIN, Status: "Allocation", NetName: "PSINET-B3",
		OrgName: "PSINet, Inc.", OrgID: "PSI", Country: "US",
		Updated: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
	})
	var sb strings.Builder
	if err := WriteARIN(&sb, db); err != nil {
		t.Fatal(err)
	}
	back, err := ParseARIN(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 1 {
		t.Fatalf("roundtrip records = %d", len(back.Records))
	}
	g, w := back.Records[0], db.Records[0]
	if g.Prefixes[0] != w.Prefixes[0] || g.Status != w.Status || g.OrgName != w.OrgName || !g.Updated.Equal(w.Updated) {
		t.Errorf("roundtrip: got %+v want %+v", g, w)
	}
}

func TestRoundTripLACNIC(t *testing.T) {
	db := NewDatabase()
	db.Records = append(db.Records, Record{
		Prefixes: []netip.Prefix{netx.MustParse("200.160.0.0/20")},
		Registry: alloc.LACNIC, Status: "ALLOCATED",
		OrgName: "Acme Telecom S.A.", OrgID: "AR-ACME",
		Country: "AR", Updated: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
	})
	var sb strings.Builder
	if err := WriteLACNIC(&sb, db); err != nil {
		t.Fatal(err)
	}
	back, err := ParseLACNIC(strings.NewReader(sb.String()), alloc.LACNIC)
	if err != nil {
		t.Fatal(err)
	}
	g, w := back.Records[0], db.Records[0]
	if g.Prefixes[0] != w.Prefixes[0] || g.Status != w.Status || g.OrgName != w.OrgName || !g.Updated.Equal(w.Updated) {
		t.Errorf("roundtrip: got %+v want %+v", g, w)
	}
}

func TestFlattenLatestWins(t *testing.T) {
	db := NewDatabase()
	p := netx.MustParse("10.0.0.0/16")
	db.Records = append(db.Records,
		Record{Prefixes: []netip.Prefix{p}, Registry: alloc.ARIN, Status: "Allocation",
			OrgName: "Old Corp", Updated: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)},
		Record{Prefixes: []netip.Prefix{p}, Registry: alloc.ARIN, Status: "Allocation",
			OrgName: "New Corp", Updated: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)},
		Record{Prefixes: []netip.Prefix{p}, Registry: alloc.ARIN, Status: "Reassignment",
			OrgName: "Customer Inc", Updated: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)},
	)
	entries := views(db.Flatten())
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2 (one per allocation type)", len(entries))
	}
	byStatus := map[string]entryView{}
	for _, e := range entries {
		byStatus[e.Status] = e
	}
	if byStatus["Allocation"].OrgName != "New Corp" {
		t.Errorf("latest record did not win: %q", byStatus["Allocation"].OrgName)
	}
	if byStatus["Reassignment"].OrgName != "Customer Inc" {
		t.Errorf("second type lost: %+v", entries)
	}
}

func TestFlattenDeterministicOrder(t *testing.T) {
	db := NewDatabase()
	for _, s := range []string{"11.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"} {
		db.Records = append(db.Records, Record{
			Prefixes: []netip.Prefix{netx.MustParse(s)}, Registry: alloc.ARIN,
			Status: "Allocation", OrgName: "X",
		})
	}
	entries := views(db.Flatten())
	for i := 1; i < len(entries); i++ {
		if netx.Compare(entries[i-1].Prefix, entries[i].Prefix) > 0 {
			t.Fatalf("entries out of order: %v before %v", entries[i-1].Prefix, entries[i].Prefix)
		}
	}
}

func TestMergeAndResolve(t *testing.T) {
	a := NewDatabase()
	a.Records = append(a.Records, Record{Prefixes: []netip.Prefix{netx.MustParse("10.0.0.0/8")},
		Registry: alloc.RIPE, Status: "ALLOCATED PA", OrgID: "ORG-1"})
	b := NewDatabase()
	b.Orgs["ORG-1"] = Org{ID: "ORG-1", Name: "Resolved Org"}
	a.Merge(b)
	a.ResolveOrgs()
	if a.Records[0].OrgName != "Resolved Org" {
		t.Errorf("resolve after merge: %q", a.Records[0].OrgName)
	}
}
