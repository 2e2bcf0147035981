package whois

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/obs"
)

func TestWriteDirLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func(reg alloc.Registry, prefix, status, org string) *Database {
		db := NewDatabase()
		db.Records = append(db.Records, Record{
			Prefixes: []netip.Prefix{netx.MustParse(prefix)},
			Registry: reg, Status: status, OrgName: org,
			Updated: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
		})
		return db
	}
	dbs := map[alloc.Registry]*Database{
		alloc.ARIN:    mk(alloc.ARIN, "206.238.0.0/16", "Allocation", "PSINet, Inc."),
		alloc.RIPE:    mk(alloc.RIPE, "193.0.0.0/21", "ALLOCATED PA", "Example GmbH"),
		alloc.APNIC:   mk(alloc.APNIC, "203.0.0.0/17", "ALLOCATED PORTABLE", "Acme Pty"),
		alloc.AFRINIC: mk(alloc.AFRINIC, "196.0.0.0/16", "ALLOCATED PA", "Afri Net"),
		alloc.LACNIC:  mk(alloc.LACNIC, "200.0.0.0/16", "ALLOCATED", "Latam SA"),
		alloc.KRNIC:   mk(alloc.KRNIC, "211.0.0.0/16", "ALLOCATED PORTABLE", "Hanguk Co"),
		alloc.TWNIC:   mk(alloc.TWNIC, "210.60.0.0/16", "ALLOCATED PORTABLE", "Taiwan Net"),
		alloc.JPNIC:   mk(alloc.JPNIC, "203.180.0.0/16", "", "Example KK"),
		alloc.NICBR:   mk(alloc.NICBR, "200.160.0.0/20", "ALLOCATED", "Ponto BR"),
	}
	jpnicTypes := map[netip.Prefix]string{
		netx.MustParse("203.180.0.0/16"): "ALLOCATED PORTABLE",
	}
	if err := WriteDir(dir, dbs, jpnicTypes); err != nil {
		t.Fatal(err)
	}
	flat, err := LoadDir(context.Background(), dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := views(flat)
	if len(entries) != 9 {
		t.Fatalf("merged entries = %d, want 9", len(entries))
	}
	byReg := map[alloc.Registry]entryView{}
	for _, e := range entries {
		byReg[e.Registry] = e
	}
	for reg, want := range dbs {
		got, ok := byReg[reg]
		if !ok {
			t.Errorf("registry %s missing after roundtrip", reg)
			continue
		}
		if got.Prefix != want.Records[0].Prefixes[0] {
			t.Errorf("%s prefix = %v, want %v", reg, got.Prefix, want.Records[0].Prefixes[0])
		}
		if got.OrgName != want.Records[0].OrgName {
			t.Errorf("%s org = %q, want %q", reg, got.OrgName, want.Records[0].OrgName)
		}
	}
	// JPNIC enrichment from the types cache file.
	if byReg[alloc.JPNIC].Status != "ALLOCATED PORTABLE" {
		t.Errorf("jpnic status = %q, want enriched from cache", byReg[alloc.JPNIC].Status)
	}
	// Every entry's type must resolve.
	for i := range flat.Entries() {
		if e := &flat.Entries()[i]; e.Family() != alloc.IPv4 {
			t.Errorf("entry %v: family %v", e.Prefix(), e.Family())
		} else if _, err := flat.Type(e); err != nil {
			t.Errorf("entry %v: type: %v", e.Prefix(), err)
		}
	}
}

func TestLoadDirMissingFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "whois"), 0o755); err != nil {
		t.Fatal(err)
	}
	flat, err := LoadDir(context.Background(), dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(flat.Entries()); n != 0 {
		t.Errorf("entries = %d, want 0", n)
	}
}

func TestLoadDirMalformedFileErrors(t *testing.T) {
	dir := t.TempDir()
	wdir := filepath.Join(dir, "whois")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(wdir, "ripe.db"), []byte("inetnum: banana\nstatus: X\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(context.Background(), dir, LoadOptions{}); err == nil {
		t.Error("malformed ripe.db accepted")
	}
}

func TestLoadDirWithLiveJPNICClient(t *testing.T) {
	dir := t.TempDir()
	jp := NewDatabase()
	p := netx.MustParse("203.180.0.0/16")
	jp.Records = append(jp.Records, Record{
		Prefixes: []netip.Prefix{p}, Registry: alloc.JPNIC,
		NetName: "N", OrgName: "Example KK",
		Updated: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
	})
	// Write the bulk file but no types cache: force live queries.
	if err := WriteDir(dir, map[alloc.Registry]*Database{alloc.JPNIC: jp}, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.Register(p, "Example KK", "N", "ASSIGNED PORTABLE")
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	flat, err := LoadDir(context.Background(), dir, LoadOptions{JPNICClient: &Client{Addr: addr, Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if entries := views(flat); len(entries) != 1 || entries[0].Status != "ASSIGNED PORTABLE" {
		t.Errorf("live enrichment: entries = %+v", entries)
	}
}

// TestLoadDirParallelMatchesSerial pins the LoadOptions.Workers contract:
// per-registry files may parse and flatten concurrently, but the
// single-threaded in-order merge makes the result identical to a serial
// load.
func TestLoadDirParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	mk := func(reg alloc.Registry, prefix, status, org string) *Database {
		db := NewDatabase()
		db.Records = append(db.Records, Record{
			Prefixes: []netip.Prefix{netx.MustParse(prefix)},
			Registry: reg, Status: status, OrgName: org,
			Updated: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
		})
		return db
	}
	dbs := map[alloc.Registry]*Database{
		alloc.ARIN:  mk(alloc.ARIN, "206.238.0.0/16", "Allocation", "PSINet, Inc."),
		alloc.RIPE:  mk(alloc.RIPE, "193.0.0.0/21", "ALLOCATED PA", "Example GmbH"),
		alloc.APNIC: mk(alloc.APNIC, "203.0.0.0/17", "ALLOCATED PORTABLE", "Acme Pty"),
		alloc.NICBR: mk(alloc.NICBR, "200.160.0.0/20", "ALLOCATED", "Ponto BR"),
	}
	if err := WriteDir(dir, dbs, nil); err != nil {
		t.Fatal(err)
	}
	serial, err := LoadDir(context.Background(), dir, LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1, 4} {
		par, err := LoadDir(context.Background(), dir, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(views(serial), views(par)) {
			t.Errorf("Workers=%d: entries differ from serial load", workers)
		}
	}
}

// TestLoadDirCancelled verifies the parse fan-out honors context
// cancellation.
func TestLoadDirCancelled(t *testing.T) {
	dir := t.TempDir()
	dbs := map[alloc.Registry]*Database{}
	db := NewDatabase()
	db.Records = append(db.Records, Record{
		Prefixes: []netip.Prefix{netx.MustParse("206.238.0.0/16")},
		Registry: alloc.ARIN, Status: "Allocation", OrgName: "PSINet, Inc.",
		Updated: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
	})
	dbs[alloc.ARIN] = db
	if err := WriteDir(dir, dbs, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadDir(ctx, dir, LoadOptions{Workers: 4}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestLoadDirCountersOnReload pins what the load counters count: files
// parsed by this call. A reload that re-parses one registry adds that
// registry's records, and its records of unresolvable type, once more —
// and nothing for the registries whose runs it took from the previous
// load.
func TestLoadDirCountersOnReload(t *testing.T) {
	dir := t.TempDir()
	wdir := filepath.Join(dir, "whois")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(file, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(wdir, file), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Two records each, one of them of a type the registry does not have.
	write("krnic.db", "inetnum: 211.0.0.0/16\nstatus: ALLOCATED PORTABLE\ndescr: A\n\ninetnum: 211.1.0.0/16\nstatus: NO SUCH TYPE\ndescr: B\n\n")
	write("twnic.db", "inetnum: 210.60.0.0/16\nstatus: ALLOCATED PORTABLE\ndescr: C\n\ninetnum: 210.61.0.0/16\nstatus: NO SUCH TYPE\ndescr: D\n\n")
	counters := func() (v [4]int64) {
		for i, name := range []string{"whois_records_parsed_total", "whois_records_skipped_total"} {
			v[2*i] = obs.Default().Counter(obs.Label(name, "registry", "KRNIC")).Value()
			v[2*i+1] = obs.Default().Counter(obs.Label(name, "registry", "TWNIC")).Value()
		}
		return v
	}
	ctx := context.Background()
	base := counters()
	src, err := LoadDirSources(ctx, dir, LoadOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Reflattened() != 2 || src.Records() != 4 {
		t.Errorf("cold load: reflattened %d registries, %d records", src.Reflattened(), src.Records())
	}
	cold := counters()
	for i, want := range [4]int64{2, 2, 1, 1} {
		if got := cold[i] - base[i]; got != want {
			t.Errorf("cold load: counter %d moved by %d, want %d", i, got, want)
		}
	}
	// TWNIC gains a record; KRNIC's file is untouched.
	write("twnic.db", "inetnum: 210.60.0.0/16\nstatus: ALLOCATED PORTABLE\ndescr: C\n\ninetnum: 210.61.0.0/16\nstatus: NO SUCH TYPE\ndescr: D\n\ninetnum: 210.62.0.0/16\nstatus: ASSIGNED PORTABLE\ndescr: E\n\n")
	flat, _ := src.Flatten(nil)
	next, err := LoadDirSources(ctx, dir, LoadOptions{}, flat, func(rel string) bool { return rel == "whois/twnic.db" })
	if err != nil {
		t.Fatal(err)
	}
	if next.Reflattened() != 1 || next.Records() != 5 {
		t.Errorf("reload: reflattened %d registries, %d records", next.Reflattened(), next.Records())
	}
	warm := counters()
	for i, want := range [4]int64{0, 3, 0, 1} {
		if got := warm[i] - cold[i]; got != want {
			t.Errorf("reload of twnic.db: counter %d moved by %d, want %d", i, got, want)
		}
	}
	if flat, _ := next.Flatten(nil); len(flat.Entries()) != 5 {
		t.Errorf("reload: %d entries, want 5", len(flat.Entries()))
	}
}
