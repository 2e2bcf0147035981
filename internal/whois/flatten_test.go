package whois

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// flattenReference is FlattenWithStats as it stood before flattening
// moved to sorted runs: a map keyed by (prefix, normalized status), the
// latest record — to the second, as an Entry keeps it — replacing the
// one held, then one sort. The run builder and the merge must agree with
// it on every input.
func flattenReference(db *Database) ([]entryView, FlattenStats) {
	db.ResolveOrgs()
	type key struct {
		p      netip.Prefix
		status string
	}
	best := make(map[key]entryView, len(db.Records))
	stats := FlattenStats{Records: len(db.Records)}
	for _, r := range db.Records {
		for _, p := range r.Prefixes {
			stats.Expanded++
			k := key{p, alloc.Normalize(r.Status)}
			e := entryView{Prefix: p, Registry: r.Registry, Status: r.Status, OrgName: r.OrgName, Updated: r.Updated.Unix()}
			if prev, ok := best[k]; !ok || e.Updated > prev.Updated {
				best[k] = e
			}
		}
	}
	out := make([]entryView, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := netx.Compare(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		return alloc.Normalize(out[i].Status) < alloc.Normalize(out[j].Status)
	})
	stats.Entries = len(out)
	return out, stats
}

// checkFlatten holds db.FlattenWithStats to the reference. The reference
// resolves org: references in place, so it runs second.
func checkFlatten(t testing.TB, db *Database) {
	t.Helper()
	flat, gotStats := db.FlattenWithStats(nil)
	got := views(flat)
	want, wantStats := flattenReference(db)
	if gotStats != wantStats {
		t.Fatalf("flatten stats = %+v, reference %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			t.Fatalf("flatten: %d entries, reference %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("flatten: entry %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	}
}

// parseRegistryFile parses one registry file in its flavour into a
// Database.
func parseRegistryFile(r io.Reader, reg alloc.Registry) (*Database, error) {
	switch reg {
	case alloc.ARIN:
		return ParseARIN(r)
	case alloc.LACNIC, alloc.NICBR, alloc.NICMX:
		return ParseLACNIC(r, reg)
	case alloc.JPNIC:
		return ParseJPNICBulk(r)
	default:
		return ParseRPSL(r, reg)
	}
}

// referenceLoadDir is the directory load as it stood before each registry
// file flattened on its own: every file parsed into a Database, the
// databases merged in registry order, JPNIC types applied to the merged
// records, and the lot flattened by the reference.
func referenceLoadDir(t *testing.T, dir string) ([]entryView, FlattenStats) {
	t.Helper()
	merged := NewDatabase()
	for _, rf := range registryFiles {
		f, err := os.Open(filepath.Join(dir, "whois", rf.File))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		db, err := parseRegistryFile(f, rf.Registry)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(db)
	}
	if f, err := os.Open(filepath.Join(dir, "whois", JPNICTypesFile)); err == nil {
		types, err := ParseJPNICTypes(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		ApplyJPNICTypes(merged, types)
	}
	return flattenReference(merged)
}

// checkLoadDir holds the run-per-registry directory load to the reference.
func checkLoadDir(t *testing.T, dir string) []entryView {
	t.Helper()
	src, err := LoadDirSources(context.Background(), dir, LoadOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, gotStats := src.Flatten(nil)
	got := views(flat)
	want, wantStats := referenceLoadDir(t, dir)
	if gotStats != wantStats {
		t.Errorf("load stats = %+v, reference %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("load: %d entries, reference %d\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("load: entry %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return got
}

func TestFlattenMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	regs := []alloc.Registry{alloc.ARIN, alloc.RIPE, alloc.APNIC, alloc.LACNIC, alloc.AFRINIC, alloc.JPNIC}
	for round := 0; round < 50; round++ {
		db := NewDatabase()
		// A small pool of blocks and coarse timestamps, so that keys
		// collide and timestamps tie.
		pool := make([]Record, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = randomRecord(rng, regs[rng.Intn(len(regs))])
		}
		for i := 0; i < 200; i++ {
			r := pool[rng.Intn(len(pool))]
			r.Prefixes = append([]netip.Prefix(nil), r.Prefixes...)
			for rng.Intn(3) == 0 {
				r.Prefixes = append(r.Prefixes, pool[rng.Intn(len(pool))].Prefixes[0])
			}
			switch rng.Intn(4) {
			case 0:
				r.Status = []string{"allocated-pa", "ALLOCATED_PA", " Allocated  PA ", "", "no such type"}[rng.Intn(5)]
			case 1:
				r.OrgName, r.OrgID = "", []string{"ORG-1", "ORG-2", "ORG-MISSING"}[rng.Intn(3)]
			}
			r.Updated = time.Date(2024, 1, 1+rng.Intn(3), 0, 0, 0, 0, time.UTC)
			if rng.Intn(10) == 0 {
				r.Updated = time.Time{}
			}
			db.Records = append(db.Records, r)
		}
		db.Orgs["ORG-1"] = Org{ID: "ORG-1", Name: "Org One"}
		db.Orgs["ORG-2"] = Org{ID: "ORG-2", Name: ""}
		checkFlatten(t, db)
	}
}

// TestFlattenOddPrefixes covers what only a hand-built Database holds:
// prefixes with host bits, without an address, or with a length out of
// range. They are keys like any other, in netx.Compare order.
func TestFlattenOddPrefixes(t *testing.T) {
	db := NewDatabase()
	odd := []netip.Prefix{
		{},
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 8),
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 8),
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 99),
		netip.PrefixFrom(netip.MustParseAddr("::"), 0),
		netip.PrefixFrom(netip.MustParseAddr("::ffff:10.0.0.0"), 104),
		netip.PrefixFrom(netip.MustParseAddr("2001:db8::"), 200),
		netip.MustParsePrefix("255.255.255.255/32"),
		netip.MustParsePrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
	}
	for i, p := range odd {
		db.Records = append(db.Records,
			Record{Prefixes: []netip.Prefix{p}, Registry: alloc.ARIN, Status: "Allocation", OrgName: "A"},
			Record{Prefixes: []netip.Prefix{p, odd[(i+1)%len(odd)]}, Registry: alloc.ARIN, Status: "Reassignment", OrgName: "B"},
			Record{Registry: alloc.ARIN, Status: "Allocation", OrgName: "no prefixes"},
		)
	}
	checkFlatten(t, db)
}

// TestLoadDirHostileTable runs directories built to collide — across
// registries, across spellings, across the JPNIC type cache — through the
// run-per-registry load and through the reference, and pins the winners
// the tie rules name.
func TestLoadDirHostileTable(t *testing.T) {
	rpsl := func(spec, status, descr, org, modified string) string {
		s := "inetnum: " + spec + "\nstatus: " + status + "\n"
		if descr != "" {
			s += "descr: " + descr + "\n"
		}
		if org != "" {
			s += "org: " + org + "\n"
		}
		return s + "last-modified: " + modified + "\n\n"
	}
	orgObj := func(id, name string) string { return "organisation: " + id + "\norg-name: " + name + "\n\n" }
	cases := []struct {
		name  string
		files map[string]string
		// want maps "prefix status" of an entry to its OrgName; entries
		// not listed are only held to the reference.
		want map[string]string
		n    int
	}{
		{
			name: "two registries, equal Updated: the earlier registry stays",
			files: map[string]string{
				"apnic.db": rpsl("10.0.0.0/8", "ALLOCATED PORTABLE", "Apnic Holder", "", "2024-01-01T00:00:00Z"),
				"krnic.db": rpsl("10.0.0.0/8", "ALLOCATED PORTABLE", "Krnic Holder", "", "2024-01-01T00:00:00Z"),
			},
			want: map[string]string{"10.0.0.0/8 ALLOCATED PORTABLE": "Apnic Holder"},
			n:    1,
		},
		{
			name: "two registries, different Updated: the latest wins",
			files: map[string]string{
				"apnic.db": rpsl("10.0.0.0/8", "ALLOCATED PORTABLE", "Apnic Holder", "", "2024-01-01T00:00:00Z"),
				"krnic.db": rpsl("10.0.0.0/8", "ALLOCATED PORTABLE", "Krnic Holder", "", "2024-01-02T00:00:00Z"),
				"twnic.db": rpsl("10.0.0.0/8", "ALLOCATED PORTABLE", "Twnic Holder", "", "2024-01-02T00:00:00Z"),
			},
			want: map[string]string{"10.0.0.0/8 ALLOCATED PORTABLE": "Krnic Holder"},
			n:    1,
		},
		{
			name: "statuses equal only after normalizing, in one file and across two",
			files: map[string]string{
				"ripe.db": rpsl("10.0.0.0/8", "ALLOCATED PA", "Upper", "", "2024-01-01T00:00:00Z") +
					rpsl("10.0.0.0/8", "allocated-pa", "Lower", "", "2024-01-01T00:00:00Z") +
					rpsl("10.0.0.0/8", "ASSIGNED PA", "Other Type", "", "2023-01-01T00:00:00Z"),
				"afrinic.db": rpsl("10.0.0.0/8", "Allocated_PA", "Afrinic", "", "2024-06-01T00:00:00Z") +
					rpsl("10.0.0.0/8", "assigned  pa", "Afrinic Old", "", "2022-01-01T00:00:00Z"),
			},
			want: map[string]string{"10.0.0.0/8 Allocated_PA": "Afrinic", "10.0.0.0/8 ASSIGNED PA": "Other Type"},
			n:    2,
		},
		{
			name: "an org: defined in another registry's file, and one defined in two",
			files: map[string]string{
				"ripe.db": rpsl("10.0.0.0/8", "ALLOCATED PA", "", "ORG-ELSEWHERE", "2024-01-01T00:00:00Z") +
					rpsl("11.0.0.0/8", "ALLOCATED PA", "", "ORG-TWICE", "2024-01-01T00:00:00Z") +
					rpsl("12.0.0.0/8", "ALLOCATED PA", "", "ORG-NOWHERE", "2024-01-01T00:00:00Z") +
					rpsl("13.0.0.0/8", "ALLOCATED PA", "Descr Only", "", "2024-01-01T00:00:00Z") +
					orgObj("ORG-TWICE", "Ripe's Name"),
				"apnic.db": orgObj("ORG-ELSEWHERE", "Defined By Apnic") + orgObj("ORG-TWICE", "Apnic's Name"),
			},
			want: map[string]string{
				"10.0.0.0/8 ALLOCATED PA": "Defined By Apnic",
				"11.0.0.0/8 ALLOCATED PA": "Apnic's Name",
				"12.0.0.0/8 ALLOCATED PA": "",
				"13.0.0.0/8 ALLOCATED PA": "Descr Only",
			},
			n: 4,
		},
		{
			name: "a JPNIC block typed by the cache collides with a typed duplicate",
			files: map[string]string{
				"apnic.db": rpsl("133.0.0.0/16", "ALLOCATED PORTABLE", "Apnic's Record", "", "2024-01-01T00:00:00Z") +
					rpsl("133.1.0.0/16", "ALLOCATED PORTABLE", "Apnic's Newer Record", "", "2024-09-01T00:00:00Z"),
				"jpnic.db": "133.0.0.0/16|N1|Jpnic Holder|20240501\n" +
					"133.1.0.0/16|N2|Jpnic Older|20240501\n" +
					"133.2.0.0/16|N3|Untyped|20240501\n" +
					"133.0.0.0/16|N4|Jpnic Holder Again|20240501\n",
				JPNICTypesFile: "133.0.0.0/16|ALLOCATED PORTABLE\n133.1.0.0/16|allocated portable\n",
			},
			want: map[string]string{
				"133.0.0.0/16 ALLOCATED PORTABLE": "Jpnic Holder",
				"133.1.0.0/16 ALLOCATED PORTABLE": "Apnic's Newer Record",
				"133.2.0.0/16 ":                   "Untyped",
			},
			n: 3,
		},
		{
			name: "a record expanding to several CIDRs, one of them registered on its own",
			files: map[string]string{
				"arin.db": "NetRange: 204.110.219.0 - 204.110.221.255\nNetType: Allocation\nOrgName: Range Holder\nUpdated: 2024-01-01\n\n" +
					"CIDR: 204.110.220.0/23, 204.110.219.0/24, 2001:db8::/32\nNetType: Allocation\nOrgName: List Holder\nUpdated: 2024-02-01\n\n",
			},
			want: map[string]string{
				"204.110.219.0/24 Allocation": "List Holder",
				"204.110.220.0/23 Allocation": "List Holder",
				"2001:db8::/32 Allocation":    "List Holder",
			},
			n: 3,
		},
		{
			name:  "empty files beside absent ones",
			files: map[string]string{"ripe.db": "", "arin.db": "# nothing\n", "jpnic.db": "\n", JPNICTypesFile: ""},
			n:     0,
		},
		{name: "no files at all", n: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "whois"), 0o755); err != nil {
				t.Fatal(err)
			}
			for name, content := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, "whois", name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			entries := checkLoadDir(t, dir)
			if len(entries) != tc.n {
				t.Errorf("%d entries, want %d: %+v", len(entries), tc.n, entries)
			}
			got := map[string]string{}
			for _, e := range entries {
				got[e.Prefix.String()+" "+e.Status] = e.OrgName
			}
			for key, org := range tc.want {
				if name, ok := got[key]; !ok || name != org {
					t.Errorf("entry %q: OrgName %q (present %v), want %q", key, name, ok, org)
				}
			}
		})
	}
}

// TestLoadDirMatchesReferenceRandom holds the directory load to the
// reference over random records written out by the registry writers: ten
// files that share blocks, an org: ID every RPSL file defines, and a
// JPNIC type cache with holes.
func TestLoadDirMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	dbs := map[alloc.Registry]*Database{}
	types := map[netip.Prefix]string{}
	for _, rf := range registryFiles {
		db := NewDatabase()
		for i := 0; i < 300; i++ {
			r := randomRecord(rng, rf.Registry)
			if rf.Registry == alloc.RIPE {
				r.OrgID = []string{"ORG-A", "ORG-B", "ORG-C"}[rng.Intn(3)]
			}
			if rf.Registry == alloc.JPNIC {
				if rng.Intn(5) > 0 {
					types[r.Prefixes[0]] = r.Status
				}
			}
			db.Records = append(db.Records, r)
		}
		db.Orgs["ORG-A"] = Org{ID: "ORG-A", Name: "Org A of " + string(rf.Registry)}
		if rf.Registry == alloc.RIPE {
			db.Orgs["ORG-B"] = Org{ID: "ORG-B", Name: "Org B"}
		}
		dbs[rf.Registry] = db
	}
	if err := WriteDir(dir, dbs, types); err != nil {
		t.Fatal(err)
	}
	if entries := checkLoadDir(t, dir); len(entries) < 1000 {
		t.Fatalf("only %d entries: the world is too small to mean anything", len(entries))
	}
}

// checkBytesReaders holds the two in-place field readers to the string
// functions they stand in for: the same value and the same verdict,
// whatever the input.
func checkBytesReaders(t testing.TB, s string) {
	t.Helper()
	wantT, wantErr := parseTime(s)
	gotT, gotErr := parseTimeBytes([]byte(s))
	if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotT, wantT) {
		t.Errorf("parseTimeBytes(%q) = %v, %v; parseTime %v, %v", s, gotT, gotErr, wantT, wantErr)
	}
	wantP, wantErr := parseBlockSpec(s)
	gotP, gotErr := appendBlockSpec(nil, []byte(s))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && !slices.Equal(gotP, wantP)) {
		t.Errorf("appendBlockSpec(%q) = %v, %v; parseBlockSpec %v, %v", s, gotP, gotErr, wantP, wantErr)
	}
}

func TestBytesReadersMatchStringReaders(t *testing.T) {
	for _, s := range []string{
		// Times: the four layouts, their edges, and what only the string
		// path reads.
		"2024-06-01T10:00:00Z", "2024-06-01T10:00:00.5Z", "2024-06-01T10:00:00+02:00", "2024-06-01t10:00:00z",
		"2024-05-01", "20240501", "2024-05-01 23:59:58", "  2024-05-01\t", "noc@example.net 20240501",
		"2024-02-29", "2023-02-29", "20240230", "2024-13-01", "2024-00-10", "2024-01-00", "0000-01-01", "9999-12-31",
		"2024-05-01 24:00:00", "2024-05-01 23:60:00", "2024-05-01 23:59:60", "2024-05-01T23:59:60Z",
		"2024-05-0a", "2024/05/01", "2024-05-01T10:00:00", "2024-05-01 1:00:00", "+0240501", "2024-05-011", "",
		// Block specs: the forms read in place, and the ones handed on.
		"193.0.0.0/21", "193.0.10.1/21", "193.0.0.0 - 193.0.7.255", "193.0.0.0-193.0.7.255", " 193.0.0.0  -  193.0.7.255 ",
		"2001:db8::/32", "2001:db8:: - 2001:db8:ffff:ffff:ffff:ffff:ffff:ffff", "10.0.0.0 - 10.0.2.255", "10.1.2.3",
		"fe80::%eth0 - fe80::ff%eth0", "fe80::1%eth0/64", "::ffff:10.0.0.0 - ::ffff:10.0.0.255", "::ffff:10.0.0.0/104",
		"10.0.0.9 - 10.0.0.1", "10.0.0.0 - banana", "10.0.0.0 - 2001:db8::", "10.0.0.0/33", "10.0.0.0/08", "10.0.0.0/",
		"010.0.0.0/8", "10.0.0.0 - 10.0.0.255 - 10.0.1.255", "banana", "10.0.0.0 -", " - ", "1.2.3.4/32/32",
	} {
		checkBytesReaders(t, s)
	}
}

// TestReloadMatchesColdLoad chains incremental loads over a directory
// whose registry files share blocks, timestamps and org: IDs, rewriting
// a few files a round: the reloaded Flat — the previous merge's winners
// and losers carried over for the files left alone, org: references
// resolved afresh — must read back exactly as a cold load of the same
// directory does, reference included, with a string table of the same
// size.
func TestReloadMatchesColdLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var pool []netip.Prefix
	for i := 0; i < 40; i++ {
		pool = append(pool, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 8), byte(i % 8 * 32), 0}), 19+i%3).Masked())
	}
	types := map[netip.Prefix]string{}
	gen := func(reg alloc.Registry, round int) *Database {
		db := NewDatabase()
		for i := 0; i < 30; i++ {
			r := randomRecord(rng, reg)
			r.Prefixes = []netip.Prefix{pool[rng.Intn(len(pool))]}
			r.Updated = time.Date(2024, 1, 1+rng.Intn(3), 0, 0, 0, 0, time.UTC)
			if reg == alloc.RIPE {
				r.OrgID = []string{"ORG-A", "ORG-B", "ORG-C"}[rng.Intn(3)]
			}
			if reg == alloc.JPNIC && rng.Intn(4) > 0 {
				types[r.Prefixes[0]] = r.Status
			}
			db.Records = append(db.Records, r)
		}
		db.Orgs["ORG-A"] = Org{ID: "ORG-A", Name: fmt.Sprintf("Org A of %s, round %d", reg, round)}
		if rng.Intn(2) == 0 {
			db.Orgs["ORG-B"] = Org{ID: "ORG-B", Name: fmt.Sprintf("Org B of %s", reg)}
		}
		return db
	}
	dir := t.TempDir()
	dbs := map[alloc.Registry]*Database{}
	for _, rf := range registryFiles {
		dbs[rf.Registry] = gen(rf.Registry, 0)
	}
	if err := WriteDir(dir, dbs, types); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev, err := LoadDir(ctx, dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	losers := 0
	for round := 1; round <= 12; round++ {
		changed := map[string]bool{}
		rewrite := map[alloc.Registry]*Database{}
		for range 1 + rng.Intn(3) {
			rf := registryFiles[rng.Intn(len(registryFiles))]
			rewrite[rf.Registry] = gen(rf.Registry, round)
			changed["whois/"+rf.File] = true
		}
		var rewriteTypes map[netip.Prefix]string
		if rewrite[alloc.JPNIC] != nil {
			rewriteTypes, changed["whois/"+JPNICTypesFile] = types, true
		}
		if err := WriteDir(dir, rewrite, rewriteTypes); err != nil {
			t.Fatal(err)
		}
		src, err := LoadDirSources(ctx, dir, LoadOptions{}, prev, func(rel string) bool { return changed[rel] })
		if err != nil {
			t.Fatal(err)
		}
		if src.Reflattened() != len(rewrite) {
			t.Errorf("round %d: reflattened %d files, rewrote %d", round, src.Reflattened(), len(rewrite))
		}
		got, gotStats := src.Flatten(nil)
		want := checkLoadDir(t, dir)
		cold, err := LoadDirSources(ctx, dir, LoadOptions{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		coldFlat, coldStats := cold.Flatten(nil)
		if gotStats != coldStats || got.Strings() != coldFlat.Strings() {
			t.Errorf("round %d: stats %+v and %d strings, cold load %+v and %d", round, gotStats, got.Strings(), coldStats, coldFlat.Strings())
		}
		if !reflect.DeepEqual(views(got), want) {
			t.Fatalf("round %d: the reload differs from a cold load", round)
		}
		losers += len(got.losers)
		prev = got
	}
	if losers == 0 {
		t.Fatal("no entry ever lost to another registry's: the directory tests nothing")
	}
}
