package bgp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"github.com/prefix2org/prefix2org/internal/netx"
)

// Entry is one RIB entry as seen by one collector from one peer.
type Entry struct {
	Collector string
	PeerASN   uint32
	Prefix    netip.Prefix
	ASPath    []uint32
}

// Origin returns the path's origin ASN.
func (e *Entry) Origin() (uint32, bool) {
	if len(e.ASPath) == 0 {
		return 0, false
	}
	return e.ASPath[len(e.ASPath)-1], true
}

// Collector maintains per-peer RIBs by applying UPDATE messages, the way
// a RouteViews or RIS collector does.
type Collector struct {
	Name string
	// ribs: peer ASN -> prefix -> AS path.
	ribs map[uint32]map[netip.Prefix][]uint32
}

// NewCollector returns a collector with no peers.
func NewCollector(name string) *Collector {
	return &Collector{Name: name, ribs: map[uint32]map[netip.Prefix][]uint32{}}
}

// Apply processes one UPDATE received from peer.
func (c *Collector) Apply(peer uint32, u *Update) error {
	rib := c.ribs[peer]
	if rib == nil {
		rib = map[netip.Prefix][]uint32{}
		c.ribs[peer] = rib
	}
	for _, p := range u.Withdrawn {
		delete(rib, p.Masked())
	}
	if len(u.NLRI) > 0 {
		if len(u.ASPath) == 0 {
			return fmt.Errorf("bgp: collector %s: announcement from AS%d without AS path", c.Name, peer)
		}
		path := make([]uint32, len(u.ASPath))
		copy(path, u.ASPath)
		for _, p := range u.NLRI {
			rib[p.Masked()] = path
		}
	}
	return nil
}

// Dump returns the collector's RIB entries in deterministic order.
func (c *Collector) Dump() []Entry {
	var out []Entry
	for peer, rib := range c.ribs {
		for p, path := range rib {
			out = append(out, Entry{Collector: c.Name, PeerASN: peer, Prefix: p, ASPath: path})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := netx.Compare(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		if out[i].PeerASN != out[j].PeerASN {
			return out[i].PeerASN < out[j].PeerASN
		}
		return out[i].Collector < out[j].Collector
	})
	return out
}

// Table is the aggregated routed-prefix view the pipeline consumes: the
// routed prefixes that pass the paper's specificity filter — IPv4 no
// less specific than /8, IPv6 no less specific than /16, since RIRs have
// never delegated larger blocks — in canonical order, each with the set
// of origin ASNs observed across all collectors (several origins =
// MOAS). It is a set of sorted columns, built once by NewTable,
// FromEntries or LoadDir and never written after: every method only
// reads, so any number of goroutines may share a Table.
type Table struct {
	// prefixes lists the routed prefixes in canonical order
	// (netx.Compare); origins parallels it with each one's lowest
	// origin.
	prefixes []netip.Prefix
	origins  []uint32
	// moas lists, by ascending position in prefixes, the prefixes with
	// more than one origin. Their full origin sets, each ascending, lie
	// back to back in moasOrigins: MOAS is rare, so the single-origin
	// sets that dominate the table are the origins column itself.
	moas        []moasSet
	moasOrigins []uint32
	// distinct counts the routed prefixes, filtered those of them the
	// specificity filter excludes, entries the RIB entries aggregated.
	distinct, filtered, entries int
}

// moasSet places one MOAS prefix's origin set: the prefix is
// prefixes[at], its set moasOrigins[start:end].
type moasSet struct{ at, start, end int32 }

// Route is one (prefix, origin) observation, the input of a hand-built
// Table.
type Route struct {
	Prefix netip.Prefix
	Origin uint32
}

// NewTable aggregates routes into a Table. Prefixes are masked; invalid
// ones are dropped. EntryCount is zero: no RIB entry was read.
func NewTable(routes []Route) *Table {
	rows := make([]row, 0, len(routes))
	for _, r := range routes {
		if r.Prefix.IsValid() {
			rows = appendRow(rows, rowOf(r.Prefix.Masked(), r.Origin))
		}
	}
	return newTable(rows, 0)
}

// FromEntries aggregates RIB entries into a Table, skipping pathless
// entries.
func FromEntries(entries []Entry) *Table {
	rows := make([]row, 0, len(entries))
	for i := range entries {
		if origin, ok := entries[i].Origin(); ok {
			rows = appendRow(rows, rowOf(entries[i].Prefix.Masked(), origin))
		}
	}
	return newTable(rows, len(entries))
}

// row is one (prefix, origin) observation in a form without pointers
// (a netip.Addr holds one), so that a RIB's worth of rows sorts in
// memory the garbage collector never scans. Rows order as netx.Compare
// orders their prefixes, then by origin.
type row struct {
	hi, lo uint64 // the masked address: all 128 bits of IPv6, the low 32 of IPv4
	fam    uint8  // 4 or 6
	bits   uint8
	origin uint32
}

// rowOf returns the row of the masked prefix p.
func rowOf(p netip.Prefix, origin uint32) row {
	r := row{fam: 4, bits: uint8(p.Bits()), origin: origin}
	if a := p.Addr(); a.Is4() {
		b := a.As4()
		r.lo = uint64(binary.BigEndian.Uint32(b[:]))
	} else {
		b := a.As16()
		r.hi, r.lo, r.fam = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), 6
	}
	return r
}

func (r row) prefix() netip.Prefix {
	if r.fam == 4 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(r.lo))
		return netip.PrefixFrom(netip.AddrFrom4(b), int(r.bits))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], r.hi)
	binary.BigEndian.PutUint64(b[8:], r.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), int(r.bits))
}

func (r row) samePrefix(s row) bool {
	s.origin = r.origin
	return r == s
}

// appendRow appends r to rows unless the run of rows for r's prefix at
// their end already holds it. Observations of one prefix that arrive
// together — a RIB's peers of a prefix within one collector — thus add
// one row per distinct origin, not one per observation.
func appendRow(rows []row, r row) []row {
	for k := len(rows) - 1; k >= 0 && rows[k].samePrefix(r); k-- {
		if rows[k] == r {
			return rows
		}
	}
	return append(rows, r)
}

func compareRows(a, b row) int {
	switch {
	case a.fam != b.fam:
		return int(a.fam) - int(b.fam)
	case a.hi != b.hi:
		return cmp.Compare(a.hi, b.hi)
	case a.lo != b.lo:
		return cmp.Compare(a.lo, b.lo)
	case a.bits != b.bits:
		return int(a.bits) - int(b.bits)
	}
	return cmp.Compare(a.origin, b.origin)
}

// tooCoarse reports whether the specificity filter excludes r's prefix.
func (r row) tooCoarse() bool {
	if r.fam == 6 {
		return r.bits < 16
	}
	return r.bits < 8
}

// newTable is the one constructor of a Table: it sorts and deduplicates
// rows — reordering them in place — and lays out the columns, sized
// exactly. entries is the number of RIB entries the rows came from.
func newTable(rows []row, entries int) *Table {
	slices.SortFunc(rows, compareRows)
	rows = slices.Compact(rows)
	t := &Table{entries: entries}
	for i := range rows {
		if i == 0 || !rows[i].samePrefix(rows[i-1]) {
			t.distinct++
			if rows[i].tooCoarse() {
				t.filtered++
			}
		}
	}
	n := t.distinct - t.filtered
	t.prefixes, t.origins = make([]netip.Prefix, 0, n), make([]uint32, 0, n)
	for i, j := 0, 0; i < len(rows); i = j {
		j = i + 1
		for j < len(rows) && rows[j].samePrefix(rows[i]) {
			j++
		}
		if rows[i].tooCoarse() {
			continue
		}
		if j-i > 1 {
			m := moasSet{at: int32(len(t.prefixes)), start: int32(len(t.moasOrigins))}
			for _, r := range rows[i:j] {
				t.moasOrigins = append(t.moasOrigins, r.origin)
			}
			m.end = int32(len(t.moasOrigins))
			t.moas = append(t.moas, m)
		}
		t.prefixes = append(t.prefixes, rows[i].prefix())
		t.origins = append(t.origins, rows[i].origin)
	}
	return t
}

// EntryCount returns the number of RIB entries the table aggregates.
func (t *Table) EntryCount() int { return t.entries }

// FilteredCount returns how many routed prefixes the specificity filter
// excludes from the table.
func (t *Table) FilteredCount() int { return t.filtered }

// Len returns the number of distinct routed prefixes, the filtered ones
// included.
func (t *Table) Len() int { return t.distinct }

// Prefixes returns the routed prefixes that pass the specificity filter,
// in canonical order. The slice is the table's own column: callers must
// not modify it.
func (t *Table) Prefixes() []netip.Prefix { return t.prefixes[:len(t.prefixes):len(t.prefixes)] }

// LowestOrigins returns, parallel to Prefixes, each prefix's canonical
// (lowest) origin — what Origin answers. The slice is the table's own
// column: callers must not modify it.
func (t *Table) LowestOrigins() []uint32 { return t.origins[:len(t.origins):len(t.origins)] }

// index returns the position of prefix in the prefixes column.
func (t *Table) index(prefix netip.Prefix) (int, bool) {
	return slices.BinarySearchFunc(t.prefixes, prefix.Masked(), netx.Compare)
}

// Origins returns the origin set for prefix in ascending order, or nil
// when the table has no such prefix — a prefix the specificity filter
// excludes included.
func (t *Table) Origins(prefix netip.Prefix) []uint32 {
	i, ok := t.index(prefix)
	if !ok {
		return nil
	}
	k, moas := slices.BinarySearchFunc(t.moas, int32(i), func(m moasSet, at int32) int { return cmp.Compare(m.at, at) })
	if !moas {
		return []uint32{t.origins[i]}
	}
	m := t.moas[k]
	return slices.Clone(t.moasOrigins[m.start:m.end])
}

// Origin returns the canonical (lowest) origin for prefix — the pipeline
// keys ASN clustering on a single origin per prefix, and MOAS prefixes
// are rare enough that the deterministic choice suffices.
func (t *Table) Origin(prefix netip.Prefix) (uint32, bool) {
	i, ok := t.index(prefix)
	if !ok {
		return 0, false
	}
	return t.origins[i], true
}

// OriginCount returns the number of distinct origin ASNs across the
// prefixes that pass the specificity filter — the paper's "originated
// from 84.3k ASes" accounting.
func (t *Table) OriginCount() int {
	seen := map[uint32]bool{}
	for _, a := range t.origins {
		seen[a] = true
	}
	for _, a := range t.moasOrigins {
		seen[a] = true
	}
	return len(seen)
}
