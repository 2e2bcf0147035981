package bgp

import (
	"net/netip"
	"slices"
	"testing"

	"github.com/prefix2org/prefix2org/internal/netx"
)

// refTable is the reference the columnar Table is held to: the map
// aggregation it replaced, one sorted origin set per distinct prefix,
// filtered ones included.
type refTable struct {
	origins  map[netip.Prefix][]uint32
	entries  int
	filtered int
}

func refOf(entries []Entry) *refTable {
	ref := &refTable{origins: map[netip.Prefix][]uint32{}, entries: len(entries)}
	for i := range entries {
		if origin, ok := entries[i].Origin(); ok {
			ref.add(entries[i].Prefix.Masked(), origin)
		}
	}
	return ref
}

func (ref *refTable) add(p netip.Prefix, origin uint32) {
	s, seen := ref.origins[p]
	if !seen && tooCoarse(p) {
		ref.filtered++
	}
	if i, found := slices.BinarySearch(s, origin); !found {
		ref.origins[p] = slices.Insert(s, i, origin)
	}
}

func tooCoarse(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() < 8
	}
	return p.Bits() < 16
}

// prefixes is the old Table.Prefixes: the map's keys that pass the
// specificity filter, sorted.
func (ref *refTable) prefixes() []netip.Prefix {
	var out []netip.Prefix
	for p := range ref.origins {
		if !tooCoarse(p) {
			out = append(out, p)
		}
	}
	netx.Sort(out)
	return out
}

// checkTable fails t where got answers differently from ref. A prefix
// the specificity filter excludes is absent from got: it has no origin.
func checkTable(t *testing.T, got *Table, ref *refTable) {
	t.Helper()
	want := ref.prefixes()
	if !slices.Equal(got.Prefixes(), want) {
		t.Fatalf("Prefixes = %v, reference %v", got.Prefixes(), want)
	}
	if got.Len() != len(ref.origins) || got.FilteredCount() != ref.filtered || got.EntryCount() != ref.entries {
		t.Fatalf("Len/FilteredCount/EntryCount = %d/%d/%d, reference %d/%d/%d",
			got.Len(), got.FilteredCount(), got.EntryCount(), len(ref.origins), ref.filtered, ref.entries)
	}
	lowest := got.LowestOrigins()
	for p, set := range ref.origins {
		o, ok := got.Origin(p)
		if tooCoarse(p) {
			if ok || got.Origins(p) != nil {
				t.Fatalf("%s: filtered prefix has origin %d", p, o)
			}
			continue
		}
		if !ok || o != set[0] {
			t.Fatalf("Origin(%s) = %d,%v, reference %d", p, o, ok, set[0])
		}
		if os := got.Origins(p); !slices.Equal(os, set) {
			t.Fatalf("Origins(%s) = %v, reference %v", p, os, set)
		}
		if i, _ := slices.BinarySearchFunc(want, p, netx.Compare); lowest[i] != set[0] {
			t.Fatalf("LowestOrigins[%d] = %d, reference %d for %s", i, lowest[i], set[0], p)
		}
	}
}
