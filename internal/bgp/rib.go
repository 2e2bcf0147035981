package bgp

import (
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

// Table is the aggregated routed-prefix view the pipeline consumes: for
// every prefix, the set of origin ASNs observed across all collectors
// (several origins = MOAS).
type Table struct {
	// origins holds each prefix's origin set as a sorted, deduplicated
	// slice: almost every prefix has exactly one origin (MOAS is rare),
	// so a slice beats a per-prefix set both on load (no inner map
	// allocation per prefix) and on lookup (Origin reads element 0).
	origins map[netip.Prefix][]uint32
	// spare is a chunk allocator for the single-origin sets that
	// dominate the table: carving them out of shared blocks replaces one
	// tiny allocation per routed prefix. A set that grows past its carve
	// is copied out by slices.Insert; the chunk slot it leaves behind is
	// simply dead.
	spare []uint32
	// entries counts the RIB entries merged via AddEntries, for the
	// pipeline's load accounting.
	entries int
	// filtered counts the distinct prefixes the specificity filter
	// excludes, maintained on first insert so FilteredCount never scans
	// the map.
	filtered int
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{origins: map[netip.Prefix][]uint32{}}
}

// Add records that prefix was originated by origin.
func (t *Table) Add(prefix netip.Prefix, origin uint32) {
	t.add(prefix.Masked(), origin)
}

// add is Add for a prefix the caller guarantees is already masked.
func (t *Table) add(p netip.Prefix, origin uint32) {
	s := t.origins[p]
	if s == nil {
		if tooCoarse(p) {
			t.filtered++
		}
		if len(t.spare) == cap(t.spare) {
			t.spare = make([]uint32, 0, 1024)
		}
		n := len(t.spare)
		t.spare = append(t.spare, origin)
		t.origins[p] = t.spare[n : n+1 : n+1]
		return
	}
	i, found := slices.BinarySearch(s, origin)
	if found {
		return
	}
	t.origins[p] = slices.Insert(s, i, origin)
}

// AddEntries merges RIB entries into the table, skipping pathless entries.
func (t *Table) AddEntries(entries []Entry) {
	if len(t.origins) == 0 && len(entries) > 0 {
		// A fresh table being bulk-loaded: presize for the common ~4
		// RIB entries per distinct prefix.
		t.origins = make(map[netip.Prefix][]uint32, len(entries)/4)
	}
	t.entries += len(entries)
	for i := range entries {
		if origin, ok := entries[i].Origin(); ok {
			t.Add(entries[i].Prefix, origin)
		}
	}
}

// EntryCount returns the number of RIB entries merged via AddEntries.
func (t *Table) EntryCount() int { return t.entries }

// FilteredCount returns how many routed prefixes the specificity filter
// (IPv4 coarser than /8, IPv6 coarser than /16) excludes from Prefixes.
func (t *Table) FilteredCount() int { return t.filtered }

// Origins returns the origin set for prefix in ascending order.
func (t *Table) Origins(prefix netip.Prefix) []uint32 {
	return slices.Clone(t.origins[prefix.Masked()])
}

// Origin returns the canonical (lowest) origin for prefix — the pipeline
// keys ASN clustering on a single origin per prefix, and MOAS prefixes
// are rare enough that the deterministic choice suffices.
func (t *Table) Origin(prefix netip.Prefix) (uint32, bool) {
	s := t.origins[prefix.Masked()]
	if len(s) == 0 {
		return 0, false
	}
	return s[0], true
}

// Len returns the number of routed prefixes in the table.
func (t *Table) Len() int { return len(t.origins) }

// Prefixes returns all routed prefixes that pass the paper's specificity
// filter — IPv4 no less specific than /8, IPv6 no less specific than /16,
// since RIRs have never delegated larger blocks — in canonical order.
func (t *Table) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(t.origins))
	for p := range t.origins {
		if tooCoarse(p) {
			continue
		}
		out = append(out, p)
	}
	netx.Sort(out)
	return out
}

func tooCoarse(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() < 8
	}
	return p.Bits() < 16
}

// OriginCount returns the number of distinct origin ASNs across the
// prefixes that pass the specificity filter — the paper's "originated
// from 84.3k ASes" accounting.
func (t *Table) OriginCount() int {
	seen := map[uint32]bool{}
	for p, s := range t.origins {
		if tooCoarse(p) {
			continue
		}
		for _, a := range s {
			seen[a] = true
		}
	}
	return len(seen)
}
