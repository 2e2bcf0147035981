package lpm

import (
	"net/netip"
	"slices"
)

// Groups is a frozen prefix multimap: items that share a prefix form
// one group, and an Index maps every distinct prefix to its group id.
// It is what the build path's "all WHOIS entries / certificates / ROAs
// registered at exactly this block, for every block covering p"
// queries read. Immutable after Group, like the Index it wraps.
type Groups[T any] struct {
	ix    *Index
	start []int32 // group id g holds items[start[g]:start[g+1]]
	items []T
}

// Group compiles items into groups keyed by prefix(&items[i]), host
// bits masked away. Within a group items keep their input order; group
// ids follow canonical prefix order. Items with an invalid prefix are
// dropped. items itself is neither modified nor retained.
func Group[T any](items []T, prefix func(*T) netip.Prefix) *Groups[T] {
	return group(items, prefix, false)
}

// GroupInPlace is Group over items the caller hands over and never
// writes again: when they are in group order already — every prefix
// valid, in canonical order, as a sorted list's are — the Groups keeps
// items itself rather than a copy.
func GroupInPlace[T any](items []T, prefix func(*T) netip.Prefix) *Groups[T] {
	return group(items, prefix, true)
}

func group[T any](items []T, prefix func(*T) netip.Prefix, inPlace bool) *Groups[T] {
	g := &Groups[T]{ix: &Index{v4: family{off: 96}}}
	var v4, v6 []key // val = position in items
	for i := range items {
		switch p := prefix(&items[i]); {
		case !p.IsValid():
		case p.Addr().Is4():
			v4 = append(v4, keyOf(p, int32(i)))
		default:
			v6 = append(v6, keyOf(p, int32(i)))
		}
	}
	// Position is the sort's last key, so equal prefixes stay in input
	// order.
	slices.SortFunc(v4, compareKeys)
	slices.SortFunc(v6, compareKeys)
	inPlace = inPlace && len(v4)+len(v6) == len(items)
	for i, k := range v4 {
		inPlace = inPlace && k.val == int32(i)
	}
	for i, k := range v6 {
		inPlace = inPlace && k.val == int32(len(v4)+i)
	}
	if inPlace {
		g.items = items
	} else {
		g.items = make([]T, 0, len(v4)+len(v6))
	}
	n := int32(0) // items grouped so far
	freeze := func(f *family, keys []key) {
		w := 0
		for i, k := range keys {
			if i == 0 || !k.samePrefix(keys[w-1]) {
				keys[w] = key{k.hi, k.lo, k.bits, int32(len(g.start))}
				w++
				g.start = append(g.start, n)
			}
			if !inPlace {
				g.items = append(g.items, items[k.val])
			}
			n++
		}
		f.fill(keys[:w])
	}
	freeze(&g.ix.v4, v4)
	freeze(&g.ix.v6, v6)
	g.start = append(g.start, n)
	return g
}

// Index returns the index over the group prefixes; its values are
// group ids for At.
func (g *Groups[T]) Index() *Index { return g.ix }

// At returns group id's items. The slice is shared: read-only.
func (g *Groups[T]) At(id int32) []T {
	lo, hi := g.start[id], g.start[id+1]
	return g.items[lo:hi:hi]
}

// Get returns the items registered at exactly p, nil when there are
// none.
func (g *Groups[T]) Get(p netip.Prefix) []T {
	if m, ok := g.ix.Match(p); ok && m.Prefix() == p.Masked() {
		return g.At(m.Val())
	}
	return nil
}
