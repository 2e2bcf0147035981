package bgp

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/prefix2org/prefix2org/internal/netx"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// ReadMRT parses a snapshot written by WriteMRT into an entry slice:
// StreamMRT materialized, for the round-trip tests and fuzz targets.
func ReadMRT(r io.Reader) ([]Entry, error) {
	var entries []Entry
	// AS paths are carved out of a shared arena: one allocation per
	// growth step instead of one per entry. A grown arena leaves earlier
	// paths pointing at the old backing array, which stays valid.
	var arena []uint32
	err := StreamMRT(r, func(e Entry) error {
		start := len(arena)
		arena = append(arena, e.ASPath...)
		e.ASPath = arena[start:len(arena):len(arena)]
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if entries == nil {
		entries = []Entry{}
	}
	return entries, nil
}

func TestCollectorApplyAndWithdraw(t *testing.T) {
	c := NewCollector("rv-test")
	ann := &Update{ASPath: []uint32{100, 200}, NLRI: []netip.Prefix{mp("10.0.0.0/8"), mp("11.0.0.0/8")}}
	if err := c.Apply(100, ann); err != nil {
		t.Fatal(err)
	}
	wd := &Update{Withdrawn: []netip.Prefix{mp("11.0.0.0/8")}}
	if err := c.Apply(100, wd); err != nil {
		t.Fatal(err)
	}
	dump := c.Dump()
	if len(dump) != 1 || dump[0].Prefix != mp("10.0.0.0/8") {
		t.Fatalf("dump = %+v", dump)
	}
	if o, _ := dump[0].Origin(); o != 200 {
		t.Errorf("origin = %d", o)
	}
	// A second peer's RIB is kept apart from the first.
	if err := c.Apply(300, &Update{ASPath: []uint32{300, 400}, NLRI: []netip.Prefix{mp("12.0.0.0/8")}}); err != nil {
		t.Fatal(err)
	}
	if len(c.Dump()) != 2 {
		t.Errorf("dump after second peer's apply = %d entries", len(c.Dump()))
	}
	// An announcement without an AS path is refused.
	if err := c.Apply(1, &Update{NLRI: []netip.Prefix{mp("13.0.0.0/8")}}); err == nil {
		t.Error("announcement without AS path accepted")
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []netip.Prefix{mp("10.0.0.0/8")}}
	if _, ok := u.Origin(); ok {
		t.Error("withdraw-only update has an origin")
	}
	c := NewCollector("rv")
	if err := c.Apply(1, &Update{ASPath: []uint32{1, 2}, NLRI: []netip.Prefix{mp("10.0.0.0/8")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(1, u); err != nil {
		t.Fatal(err)
	}
	if dump := c.Dump(); len(dump) != 0 {
		t.Errorf("dump after withdraw-only update = %+v", dump)
	}
}

func TestCollectorLatestPathWins(t *testing.T) {
	c := NewCollector("rv")
	c.Apply(1, &Update{ASPath: []uint32{1, 2}, NLRI: []netip.Prefix{mp("10.0.0.0/8")}})
	c.Apply(1, &Update{ASPath: []uint32{1, 3}, NLRI: []netip.Prefix{mp("10.0.0.0/8")}})
	dump := c.Dump()
	if len(dump) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	if o, _ := dump[0].Origin(); o != 3 {
		t.Errorf("origin = %d, want 3 (implicit withdraw)", o)
	}
}

func TestTableAggregation(t *testing.T) {
	entry := func(p string, path ...uint32) Entry {
		return Entry{Collector: "rv", PeerASN: 1, Prefix: mp(p), ASPath: path}
	}
	for _, tc := range []struct {
		name    string
		entries []Entry
	}{
		{"moas", []Entry{entry("10.0.0.0/8", 3, 100), entry("10.0.0.0/8", 3, 50), entry("10.0.0.0/8", 4, 75), entry("2001:db8::/32", 200)}},
		{"duplicate rows", []Entry{entry("10.0.0.0/8", 1, 100), entry("10.0.0.0/8", 2, 100), entry("11.0.0.0/8", 100), entry("10.0.0.0/8", 3, 100)}},
		{"pathless entries", []Entry{entry("10.0.0.0/8"), entry("11.0.0.0/8", 7), entry("11.0.0.0/8")}},
		{"IPv4 /7", []Entry{entry("0.0.0.0/0", 1), entry("10.0.0.0/7", 2), entry("10.0.0.0/8", 3), entry("10.0.0.0/7", 4)}},
		{"IPv6 /15", []Entry{entry("2000::/12", 1), entry("2000::/15", 2), entry("2000::/16", 3), entry("::ffff:10.0.0.0/104", 4)}},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkTable(t, FromEntries(tc.entries), refOf(tc.entries))
		})
	}

	tbl := NewTable([]Route{
		{Prefix: mp("10.0.0.0/8"), Origin: 100},
		{Prefix: mp("10.0.0.0/8"), Origin: 50}, // MOAS
		{Prefix: mp("2001:db8::/32"), Origin: 200},
		{Prefix: mp("0.0.0.0/0"), Origin: 1}, // filtered: coarser than /8
		{Prefix: mp("2000::/12"), Origin: 2}, // filtered: coarser than /16
	})
	if got := tbl.Origins(mp("10.0.0.0/8")); len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Errorf("Origins = %v", got)
	}
	if o, ok := tbl.Origin(mp("10.0.0.0/8")); !ok || o != 50 {
		t.Errorf("Origin = %d,%v", o, ok)
	}
	if _, ok := tbl.Origin(mp("99.0.0.0/8")); ok {
		t.Error("missing prefix has origin")
	}
	ps := tbl.Prefixes()
	if len(ps) != 2 {
		t.Fatalf("Prefixes = %v (default route and 2000::/12 must be filtered)", ps)
	}
	if tbl.OriginCount() != 3 {
		t.Errorf("OriginCount = %d", tbl.OriginCount())
	}
	if tbl.Len() != 4 || tbl.FilteredCount() != 2 || tbl.EntryCount() != 0 {
		t.Errorf("Len/FilteredCount/EntryCount = %d/%d/%d", tbl.Len(), tbl.FilteredCount(), tbl.EntryCount())
	}
}

func TestMRTRoundTrip(t *testing.T) {
	entries := []Entry{
		{Collector: "route-views2", PeerASN: 3356, Prefix: mp("10.0.0.0/8"), ASPath: []uint32{3356, 100}},
		{Collector: "route-views2", PeerASN: 3356, Prefix: mp("2001:db8::/32"), ASPath: []uint32{3356, 200}},
		{Collector: "rrc00", PeerASN: 1299, Prefix: mp("10.0.0.0/8"), ASPath: []uint32{1299, 2914, 100}},
	}
	var buf bytes.Buffer
	if err := WriteMRT(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Errorf("roundtrip:\n got %+v\nwant %+v", back, entries)
	}
}

func TestMRTEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMRT(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("roundtrip of empty dump = %v", back)
	}
}

func TestMRTRejectsGarbage(t *testing.T) {
	if _, err := ReadMRT(bytes.NewReader([]byte("NOTMRT!!"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	WriteMRT(&buf, []Entry{{Collector: "c", PeerASN: 1, Prefix: mp("10.0.0.0/8"), ASPath: []uint32{1}}})
	b := buf.Bytes()
	if _, err := ReadMRT(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Error("truncated dump accepted")
	}
}

func TestMRTRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var entries []Entry
	colls := []string{"route-views2", "route-views6", "rrc00", "rrc01"}
	for i := 0; i < 500; i++ {
		var p netip.Prefix
		if rng.Intn(4) == 0 {
			var a [16]byte
			a[0], a[1] = 0x20, 0x01
			rng.Read(a[2:6])
			p = netip.PrefixFrom(netip.AddrFrom16(a), 16+rng.Intn(49)).Masked()
		} else {
			var a [4]byte
			rng.Read(a[:])
			p = netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(25)).Masked()
		}
		path := make([]uint32, 1+rng.Intn(6))
		for j := range path {
			path[j] = rng.Uint32() % 400000
		}
		entries = append(entries, Entry{
			Collector: colls[rng.Intn(len(colls))],
			PeerASN:   rng.Uint32() % 65000,
			Prefix:    p,
			ASPath:    path,
		})
	}
	var buf bytes.Buffer
	if err := WriteMRT(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Error("random roundtrip mismatch")
	}
}

func TestWriteDirLoadDir(t *testing.T) {
	dir := t.TempDir()
	entries := []Entry{
		{Collector: "rv", PeerASN: 1, Prefix: mp("10.0.0.0/8"), ASPath: []uint32{1, 100}},
		{Collector: "rv", PeerASN: 1, Prefix: mp("10.1.0.0/16"), ASPath: []uint32{1, 100, 200}},
	}
	if err := WriteDir(dir, entries); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("table len = %d", tbl.Len())
	}
	if o, _ := tbl.Origin(mp("10.1.0.0/16")); o != 200 {
		t.Errorf("origin = %d", o)
	}
	if _, err := LoadDir(context.Background(), t.TempDir()); err == nil {
		t.Error("missing snapshot accepted")
	}
}

// TestMRTHostileEntryCount feeds dumps whose header claims 2^32-1
// entries and holds one: both readers fail after it, having allocated
// about what the entries read warrant — not what the header claims, and
// not what the file's size could hold, which a zero padding of a few MB
// makes large.
func TestMRTHostileEntryCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMRT(&buf, []Entry{{Collector: "c", PeerASN: 1, Prefix: mp("10.0.0.0/8"), ASPath: []uint32{1}}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	count := len(b) - 14 // the u32 entry count precedes the one 10-byte entry
	binary.BigEndian.PutUint32(b[count:], math.MaxUint32)
	for _, pad := range []int{1, 8 << 20} {
		dump := append(bytes.Clone(b), make([]byte, pad)...)
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "bgp"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), dump, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, read := range map[string]func() error{
			"LoadDir": func() error { _, err := LoadDir(context.Background(), dir); return err },
			"ReadMRT": func() error { _, err := ReadMRT(bytes.NewReader(dump)); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: a %d-byte dump claiming 2^32-1 entries parsed", name, len(dump))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
				t.Errorf("%s: allocated %d bytes on a %d-byte dump, want < 4 MB", name, alloc, len(dump))
			}
		}
	}
}

// loadDirBytesPerPrefix bounds what LoadDir allocates per distinct
// prefix of a dump with many peers per prefix: what TestLoadDirManyPeers
// measures (266 bytes on go1.24) plus 15 %. A prefix's peers within a
// collector collapse to one row per origin, so the rows scale with
// (prefix, origin) pairs per collector, not with the dump's 100 entries
// per prefix; one row per entry costs eight times the ceiling.
const loadDirBytesPerPrefix = 306

// TestLoadDirManyPeers keeps LoadDir's allocation a function of the
// routed prefixes, not of the RIB entries: public collectors feed each
// prefix from dozens to hundreds of peers.
func TestLoadDirManyPeers(t *testing.T) {
	const prefixes, peers = 2000, 50
	var entries []Entry
	for _, coll := range []string{"rv", "rrc"} {
		for i := range prefixes {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
			for peer := range uint32(peers) {
				// Every fifth prefix is MOAS: two origins, split by peer.
				origin := uint32(64512 + i)
				if i%5 == 0 && peer%2 == 1 {
					origin = 65000
				}
				entries = append(entries, Entry{Collector: coll, PeerASN: 100 + peer, Prefix: p, ASPath: []uint32{100 + peer, origin}})
			}
		}
	}
	dir := t.TempDir()
	if err := WriteDir(dir, entries); err != nil {
		t.Fatal(err)
	}
	ref := refOf(entries)
	entries = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl, err := LoadDir(context.Background(), dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, ref)
	perPrefix := float64(after.TotalAlloc-before.TotalAlloc) / prefixes
	t.Logf("LoadDir allocated %.0f bytes per distinct prefix over %d entries", perPrefix, tbl.EntryCount())
	if perPrefix > loadDirBytesPerPrefix {
		t.Errorf("LoadDir allocated %.0f bytes per distinct prefix at %d peers per prefix, ceiling %d", perPrefix, 2*peers, loadDirBytesPerPrefix)
	}
}

// Full path integration: synthesize updates, apply them to collectors,
// dump via MRT, aggregate.
func TestEndToEndCollectorPath(t *testing.T) {
	c1 := NewCollector("route-views2")
	c2 := NewCollector("rrc00")
	mustApply := func(c *Collector, peer uint32, u *Update) {
		t.Helper()
		if err := c.Apply(peer, u); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(c1, 3356, &Update{ASPath: []uint32{3356, 100}, NLRI: []netip.Prefix{mp("10.0.0.0/8")}})
	mustApply(c2, 1299, &Update{ASPath: []uint32{1299, 2914, 100}, NLRI: []netip.Prefix{mp("10.0.0.0/8")}})
	mustApply(c2, 1299, &Update{ASPath: []uint32{1299, 200}, NLRI: []netip.Prefix{mp("2001:db8::/32")}})

	var buf bytes.Buffer
	if err := WriteMRT(&buf, append(c1.Dump(), c2.Dump()...)); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := FromEntries(entries)
	if o, _ := tbl.Origin(mp("10.0.0.0/8")); o != 100 {
		t.Errorf("origin = %d", o)
	}
	if got := tbl.Prefixes(); len(got) != 2 {
		t.Errorf("prefixes = %v", got)
	}
}

func TestCollectorPathIsolation(t *testing.T) {
	c := NewCollector("rv")
	path := []uint32{1, 2, 3}
	c.Apply(1, &Update{ASPath: path, NLRI: []netip.Prefix{mp("10.0.0.0/8")}})
	path[2] = 999 // caller mutates its slice after Apply
	dump := c.Dump()
	if o, _ := dump[0].Origin(); o != 3 {
		t.Errorf("collector aliased caller's path slice: origin %d", o)
	}
}

func TestTablePrefixesSorted(t *testing.T) {
	tbl := NewTable([]Route{
		{Prefix: mp("11.0.0.0/8"), Origin: 1},
		{Prefix: mp("10.0.0.0/8"), Origin: 1},
		{Prefix: mp("10.0.0.0/16"), Origin: 1},
		{Prefix: mp("2001:db8::/32"), Origin: 1},
	})
	ps := tbl.Prefixes()
	for i := 1; i < len(ps); i++ {
		if netx.Compare(ps[i-1], ps[i]) >= 0 {
			t.Fatalf("Prefixes not sorted: %v", ps)
		}
	}
}

func TestMRTLongPathRejected(t *testing.T) {
	path := make([]uint32, 300)
	var buf bytes.Buffer
	err := WriteMRT(&buf, []Entry{{Collector: "c", PeerASN: 1, Prefix: mp("10.0.0.0/8"), ASPath: path}})
	if err == nil {
		t.Error("300-hop path accepted by MRT writer")
	}
}
