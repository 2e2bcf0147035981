// Package lpm implements a frozen longest-prefix-match index: the one
// prefix-keyed lookup structure of the build path (WHOIS delegation
// chains, RPKI cover and ROA indexes, via Group) and of the serve path
// (the Dataset's routed-prefix index).
//
// The index is compiled once (Freeze) from a set of (prefix, value)
// items and never mutated afterwards. Per address family it holds the
// prefixes as parallel sorted arrays — 128-bit network address split
// into two uint64 columns, the prefix length, a parent link to the
// nearest covering prefix in the set, and the caller's int32 value
// (typically a record index). Matching is one binary search over the
// contiguous address column followed by a walk up the parent chain, so
// a single-address lookup touches O(log n + depth) cache-friendly
// array slots, performs zero heap allocations, and is trivially safe
// for any number of concurrent readers.
//
// Why the parent-chain walk is correct: let P be the last entry (in
// (addr, bits) order) at or before the query. The longest covering
// match M starts at or before the query, so M <= P in sort order, and
// P's network address lies inside M's range; since prefixes are nested
// or disjoint, M is an ancestor-or-self of P. Walking P's parent chain
// therefore visits every candidate from most to least specific, and
// the first one that covers the query is the longest match.
//
// Goroutine safety: a frozen Index is immutable — p2o-lint's
// immutability rule rejects writes to it outside this package — so
// concurrent readers need no synchronization.
package lpm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// Item is one prefix to index, carrying an opaque int32 value
// (Prefix2Org uses the index of the record the prefix maps to).
type Item struct {
	Prefix netip.Prefix
	Val    int32
}

// family is the frozen per-family table. The columns are parallel
// arrays sorted by (hi, lo, bits): keeping the 128-bit address split
// into two uint64 columns makes the binary search touch only the
// address cache lines.
type family struct {
	hi, lo []uint64
	bits   []uint8 // family-native prefix length (0..32 or 0..128)
	parent []int32 // index of the nearest covering entry, -1 at the top
	val    []int32
	off    uint8 // 96 for IPv4 (v4-mapped addresses), 0 for IPv6
}

// Index is a frozen longest-prefix-match index. The zero value is an
// empty index; build real ones with Freeze or Decode.
type Index struct {
	v4, v6 family
}

// Freeze compiles items into an immutable index. Duplicate prefixes
// keep the item with the largest Val (deterministic regardless of
// input order); invalid prefixes are ignored. Prefixes are indexed in
// the family they are given in: an IPv4-mapped IPv6 prefix lands in the
// IPv6 table, where queries — which read the mapped form as IPv4 —
// never look.
func Freeze(items []Item) *Index {
	ix := &Index{v4: family{off: 96}, v6: family{off: 0}}
	var v4, v6 []Item
	for _, it := range items {
		if !it.Prefix.IsValid() {
			continue
		}
		if it.Prefix.Addr().Is4() {
			v4 = append(v4, it)
		} else {
			v6 = append(v6, it)
		}
	}
	ix.v4.freeze(v4)
	ix.v6.freeze(v6)
	return ix
}

// Len returns the number of indexed prefixes.
func (ix *Index) Len() int { return len(ix.v4.bits) + len(ix.v6.bits) }

func split(a netip.Addr) (hi, lo uint64) {
	b := a.As16()
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// mask128 zeroes the host bits of (hi, lo) below a 128-bit-counted
// prefix length.
func mask128(hi, lo uint64, bits int) (uint64, uint64) {
	switch {
	case bits <= 0:
		return 0, 0
	case bits < 64:
		return hi &^ (1<<(64-bits) - 1), 0
	case bits == 64:
		return hi, 0
	case bits < 128:
		return hi, lo &^ (1<<(128-bits) - 1)
	default:
		return hi, lo
	}
}

// key is one prefix on its way into a family's columns.
type key struct {
	hi, lo uint64
	bits   uint8
	val    int32
}

func (k key) samePrefix(o key) bool { return k.hi == o.hi && k.lo == o.lo && k.bits == o.bits }

func compareKeys(a, b key) int {
	if a.hi != b.hi {
		return cmp.Compare(a.hi, b.hi)
	}
	if a.lo != b.lo {
		return cmp.Compare(a.lo, b.lo)
	}
	if a.bits != b.bits {
		return cmp.Compare(a.bits, b.bits)
	}
	return cmp.Compare(a.val, b.val)
}

func keyOf(p netip.Prefix, val int32) key {
	p = p.Masked()
	hi, lo := split(p.Addr())
	return key{hi, lo, uint8(p.Bits()), val}
}

func (f *family) freeze(items []Item) {
	if len(items) == 0 {
		return
	}
	keys := make([]key, len(items))
	for i, it := range items {
		keys[i] = keyOf(it.Prefix, it.Val)
	}
	// slices.SortFunc rather than sort.Slice: the callers' item lists
	// are usually already in canonical order (Records are sorted by
	// prefix), which pdqsort detects and finishes in linear time.
	slices.SortFunc(keys, compareKeys)
	// Collapse duplicate prefixes: the largest Val (last after the
	// sort) wins.
	w := 0
	for _, k := range keys {
		if w > 0 && k.samePrefix(keys[w-1]) {
			keys[w-1] = k
			continue
		}
		keys[w] = k
		w++
	}
	f.fill(keys[:w])
}

// fill builds the columns from sorted, duplicate-free keys.
func (f *family) fill(keys []key) {
	w := len(keys)
	f.hi = make([]uint64, w)
	f.lo = make([]uint64, w)
	f.bits = make([]uint8, w)
	f.parent = make([]int32, w)
	f.val = make([]int32, w)
	// Parent sweep: in sorted order a covering prefix always precedes
	// the prefixes it contains, so a stack of open ancestors yields
	// each entry's nearest covering entry in one pass.
	var stack []int32
	for i, k := range keys {
		f.hi[i], f.lo[i], f.bits[i], f.val[i] = k.hi, k.lo, k.bits, k.val
		f.parent[i] = -1
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if f.covers(top, k.hi, k.lo, int(k.bits)+int(f.off)) {
				f.parent[i] = top
				break
			}
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, int32(i))
	}
}

// covers reports whether entry e contains the query prefix given by
// its (already canonical) address halves and 128-bit-counted length.
func (f *family) covers(e int32, qhi, qlo uint64, qbits128 int) bool {
	eb := int(f.bits[e]) + int(f.off)
	if eb > qbits128 {
		return false
	}
	mhi, mlo := mask128(qhi, qlo, eb)
	return mhi == f.hi[e] && mlo == f.lo[e]
}

// lookup returns the entry index of the most specific prefix covering
// the query, or -1. The query must be canonical (host bits zeroed).
//
//p2o:hotpath
func (f *family) lookup(qhi, qlo uint64, qbits128 int) int32 {
	n := len(f.bits)
	if n == 0 {
		return -1
	}
	qb := uint8(qbits128 - int(f.off))
	// First entry strictly after (qhi, qlo, qbits) in sort order; the
	// candidate start of the parent walk is the entry just before it.
	i := sort.Search(n, func(i int) bool {
		if f.hi[i] != qhi {
			return f.hi[i] > qhi
		}
		if f.lo[i] != qlo {
			return f.lo[i] > qlo
		}
		return f.bits[i] > qb
	})
	for e := int32(i) - 1; e >= 0; e = f.parent[e] {
		if f.covers(e, qhi, qlo, qbits128) {
			return e
		}
	}
	return -1
}

// query picks the family a query belongs to and returns its canonical
// key: the address halves and the 128-bit-counted length. An
// IPv4-mapped IPv6 query (::ffff:a.b.c.d, the form dual-stack sockets
// report; as a prefix, /96 or longer) is an IPv4 query. As16 renders
// both forms alike, so the family test on the halves is the whole
// canonicalisation and costs plain queries nothing.
func (ix *Index) query(a netip.Addr, bits int) (f *family, hi, lo uint64, bits128 int) {
	hi, lo = split(a)
	if a.Is4() {
		bits += 96
	}
	if hi == 0 && lo>>32 == 0xffff && bits >= 96 {
		return &ix.v4, hi, lo, bits
	}
	return &ix.v6, hi, lo, bits
}

// Lookup returns the value of the most specific indexed prefix
// containing a — the longest-prefix match. It performs no heap
// allocations.
//
//p2o:hotpath
func (ix *Index) Lookup(a netip.Addr) (int32, bool) {
	if !a.IsValid() {
		return 0, false
	}
	f, hi, lo, _ := ix.query(a, a.BitLen())
	if e := f.lookup(hi, lo, 128); e >= 0 {
		return f.val[e], true
	}
	return 0, false
}

// LookupPrefix returns the value of the most specific indexed prefix
// containing p (p itself included when indexed). It performs no heap
// allocations.
//
//p2o:hotpath
func (ix *Index) LookupPrefix(p netip.Prefix) (int32, bool) {
	m, ok := ix.Match(p)
	if !ok {
		return 0, false
	}
	return m.Val(), true
}

// Match is a zero-allocation handle to one index entry; obtain one
// from Index.Match and walk toward less specific covering entries with
// Parent.
type Match struct {
	f *family
	e int32
}

// Match returns a handle to the most specific indexed prefix
// containing p.
//
//p2o:hotpath
func (ix *Index) Match(p netip.Prefix) (Match, bool) {
	if !p.IsValid() {
		return Match{}, false
	}
	f, hi, lo, bits128 := ix.query(p.Masked().Addr(), p.Bits())
	e := f.lookup(hi, lo, bits128)
	return Match{f: f, e: e}, e >= 0
}

// Val returns the entry's value.
func (m Match) Val() int32 { return m.f.val[m.e] }

// Bits returns the entry's family-native prefix length.
func (m Match) Bits() int { return int(m.f.bits[m.e]) }

// Prefix reconstructs the entry's prefix.
func (m Match) Prefix() netip.Prefix {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], m.f.hi[m.e])
	binary.BigEndian.PutUint64(b[8:16], m.f.lo[m.e])
	a := netip.AddrFrom16(b)
	if m.f.off == 96 {
		a = a.Unmap()
	}
	return netip.PrefixFrom(a, int(m.f.bits[m.e]))
}

// Parent returns the nearest indexed prefix strictly containing the
// entry, walking one step up the covering chain.
func (m Match) Parent() (Match, bool) {
	p := m.f.parent[m.e]
	return Match{f: m.f, e: p}, p >= 0
}

// CoveringInto appends the values of every indexed prefix containing p
// to buf, least specific first — from the top of the delegation tree
// down to the longest match — and returns the extended buffer. With
// cap(buf) large enough it performs no heap allocations.
//
//p2o:hotpath
func (ix *Index) CoveringInto(p netip.Prefix, buf []int32) []int32 {
	start := len(buf)
	for m, ok := ix.Match(p); ok; m, ok = m.Parent() {
		buf = append(buf, m.Val())
	}
	// The walk emitted most specific first; flip to chain order.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Walk visits every indexed prefix in canonical order (IPv4 first,
// then by address, less specific first). Returning false stops the
// walk.
func (ix *Index) Walk(fn func(p netip.Prefix, val int32) bool) {
	for _, f := range []*family{&ix.v4, &ix.v6} {
		for e := range f.bits {
			m := Match{f: f, e: int32(e)}
			if !fn(m.Prefix(), f.val[e]) {
				return
			}
		}
	}
}

// WalkCovered visits, in canonical order, every indexed prefix
// contained in p (p itself included when indexed) — the inverse of the
// covering chain. In the sorted columns those entries are contiguous:
// they start at the first entry at or after p and end where an
// address leaves p's range. Returning false stops the walk.
//
//p2o:hotpath
func (ix *Index) WalkCovered(p netip.Prefix, fn func(p netip.Prefix, val int32) bool) {
	if !p.IsValid() {
		return
	}
	f, hi, lo, bits128 := ix.query(p.Masked().Addr(), p.Bits())
	n := len(f.bits)
	qb := uint8(bits128 - int(f.off))
	e := sort.Search(n, func(i int) bool {
		if f.hi[i] != hi {
			return f.hi[i] > hi
		}
		if f.lo[i] != lo {
			return f.lo[i] > lo
		}
		return f.bits[i] >= qb
	})
	for ; e < n; e++ {
		if mhi, mlo := mask128(f.hi[e], f.lo[e], bits128); mhi != hi || mlo != lo {
			return
		}
		if !fn(Match{f: f, e: int32(e)}.Prefix(), f.val[e]) {
			return
		}
	}
}

// validate checks the structural invariants Decode relies on: sorted
// unique keys, parent links that point backwards at covering entries,
// and prefix lengths within the family's range.
func (f *family) validate(name string, maxBits uint8) error {
	n := len(f.bits)
	if len(f.hi) != n || len(f.lo) != n || len(f.parent) != n || len(f.val) != n {
		return fmt.Errorf("lpm: %s: ragged columns", name)
	}
	for i := 0; i < n; i++ {
		if f.bits[i] > maxBits {
			return fmt.Errorf("lpm: %s entry %d: prefix length %d out of range", name, i, f.bits[i])
		}
		if mhi, mlo := mask128(f.hi[i], f.lo[i], int(f.bits[i])+int(f.off)); mhi != f.hi[i] || mlo != f.lo[i] {
			return fmt.Errorf("lpm: %s entry %d: host bits set", name, i)
		}
		if i > 0 {
			a := [3]uint64{f.hi[i-1], f.lo[i-1], uint64(f.bits[i-1])}
			b := [3]uint64{f.hi[i], f.lo[i], uint64(f.bits[i])}
			if !(a[0] < b[0] || a[0] == b[0] && (a[1] < b[1] || a[1] == b[1] && a[2] < b[2])) {
				return fmt.Errorf("lpm: %s entry %d: not sorted", name, i)
			}
		}
		p := f.parent[i]
		if p < -1 || p >= int32(i) {
			return fmt.Errorf("lpm: %s entry %d: parent %d out of range", name, i, p)
		}
		if p >= 0 && !f.covers(p, f.hi[i], f.lo[i], int(f.bits[i])+int(f.off)) {
			return fmt.Errorf("lpm: %s entry %d: parent %d does not cover it", name, i, p)
		}
	}
	return nil
}
