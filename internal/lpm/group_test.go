package lpm_test

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// tagged is one grouped item: a (possibly unmasked) prefix and the
// item's position in the input, so within-group order is observable.
type tagged struct {
	p   netip.Prefix
	pos int
}

// randomTagged draws items over a small pool of prefixes — so groups
// have several members — with host bits left set on some of them.
func randomTagged(rng *rand.Rand, n int) []tagged {
	pool := randomWorld(rng, n/3+1)
	items := make([]tagged, n)
	for i := range items {
		p := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 && p.Bits() < p.Addr().BitLen() {
			// Same block, host bits set: must land in the same group.
			a := p.Addr().As16()
			a[15] |= 1
			addr := netip.AddrFrom16(a)
			if p.Addr().Is4() {
				addr = addr.Unmap()
			}
			p = netip.PrefixFrom(addr, p.Bits())
		}
		items[i] = tagged{p, i}
	}
	return items
}

// TestGroupEquivalenceWithBruteForce pins Group to its definition:
// the items bucketed by masked prefix, in input order. Same groups,
// same members, same within-group order (input order —
// resolveOwnership's stable sort depends on it), group ids in
// canonical prefix order.
func TestGroupEquivalenceWithBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randomTagged(rng, 3000)
		want := ref[[]tagged]{}
		var keys []netip.Prefix
		for _, it := range items {
			p := it.p.Masked()
			if _, ok := want[p]; !ok {
				keys = append(keys, p)
			}
			want[p] = append(want[p], it)
		}
		netx.Sort(keys)
		before := slices.Clone(items)
		g := lpm.Group(items, func(it *tagged) netip.Prefix { return it.p })
		if !slices.Equal(items, before) {
			t.Fatal("Group modified its input")
		}
		if g.Index().Len() != len(keys) {
			t.Fatalf("seed %d: %d groups, reference has %d", seed, g.Index().Len(), len(keys))
		}
		// Walk order is canonical order; ids count up.
		i := 0
		g.Index().Walk(func(p netip.Prefix, id int32) bool {
			if p != keys[i] || int(id) != i {
				t.Fatalf("seed %d: group %d = %s (id %d), reference has %s", seed, i, p, id, keys[i])
			}
			if !slices.Equal(g.At(id), want[p]) {
				t.Fatalf("seed %d: group %s = %v, reference has %v", seed, p, g.At(id), want[p])
			}
			i++
			return true
		})
		// Get is the exact-prefix bucket, on stored prefixes (masked or
		// not) and on prefixes that are only covered.
		for _, it := range items[:500] {
			for _, q := range []netip.Prefix{it.p, netip.PrefixFrom(it.p.Addr(), it.p.Addr().BitLen())} {
				if got := g.Get(q); !slices.Equal(got, want[q.Masked()]) {
					t.Fatalf("seed %d: Get(%s) = %v, reference has %v", seed, q, got, want[q.Masked()])
				}
			}
		}
	}
}

func TestGroupEdges(t *testing.T) {
	g := lpm.Group([]tagged{{netip.Prefix{}, 0}}, func(it *tagged) netip.Prefix { return it.p })
	if g.Index().Len() != 0 || g.Get(netip.Prefix{}) != nil || g.Get(mustPrefix(t, "10.0.0.0/8")) != nil {
		t.Error("an invalid prefix formed a group")
	}
	g = lpm.Group(nil, func(it *tagged) netip.Prefix { return it.p })
	if g.Index().Len() != 0 || g.Get(mustPrefix(t, "10.0.0.0/8")) != nil {
		t.Error("empty input: want no groups")
	}
	// At's result cannot be appended into its neighbour.
	g = lpm.Group([]tagged{{mustPrefix(t, "10.0.0.0/8"), 0}, {mustPrefix(t, "11.0.0.0/8"), 1}},
		func(it *tagged) netip.Prefix { return it.p })
	_ = append(g.At(0), tagged{pos: 99})
	if got := g.At(1)[0].pos; got != 1 {
		t.Errorf("append to group 0 overwrote group 1: pos = %d", got)
	}
}

// TestWalkCoveredEquivalenceWithBruteForce: the covered-range walk
// visits exactly the stored prefixes inside the query, in canonical
// order, for stored, unstored, unmasked and invalid query prefixes,
// and stops when told.
func TestWalkCoveredEquivalenceWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	world := randomWorld(rng, 4000)
	vals := ref[int32]{}
	items := make([]lpm.Item, len(world))
	for i, p := range world {
		vals[p] = int32(i)
		items[i] = lpm.Item{Prefix: p, Val: int32(i)}
	}
	ix := lpm.Freeze(items)

	queries := []netip.Prefix{
		{}, // invalid
		mustPrefix(t, "0.0.0.0/0"), mustPrefix(t, "::/0"),
		mustPrefix(t, "10.0.0.0/8"), mustPrefix(t, "2001::/16"),
		mustPrefix(t, "192.0.2.0/24"),       // nothing inside
		netip.MustParsePrefix("10.1.2.3/8"), // unmasked
	}
	for _, p := range world[:600] {
		queries = append(queries, p)
		if p.Bits() > 2 {
			queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()-rng.Intn(3)).Masked())
		}
		if p.Bits() < p.Addr().BitLen() {
			queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()+1))
		}
	}
	type visit struct {
		p netip.Prefix
		v int32
	}
	for _, q := range queries {
		var want, got []visit
		for _, p := range covered(world, q) {
			want = append(want, visit{p, vals[p]})
		}
		ix.WalkCovered(q, func(p netip.Prefix, v int32) bool {
			got = append(got, visit{p, v})
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("WalkCovered(%s) = %v, reference has %v", q, got, want)
		}
		if len(want) > 1 {
			n := 0
			ix.WalkCovered(q, func(netip.Prefix, int32) bool { n++; return false })
			if n != 1 {
				t.Fatalf("WalkCovered(%s) visited %d entries after fn returned false", q, n)
			}
		}
	}
	var zero lpm.Index
	zero.WalkCovered(mustPrefix(t, "10.0.0.0/8"), func(netip.Prefix, int32) bool {
		t.Error("zero Index visited an entry")
		return true
	})
}

// TestIPv4MappedQueries: the 4-in-6 form of an IPv4 query (what a
// dual-stack socket reports) answers like the IPv4 form, and an IPv6
// route that happens to contain ::ffff:0:0/96 does not capture it.
func TestIPv4MappedQueries(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "192.0.2.0/24"), Val: 1},
		{Prefix: mustPrefix(t, "192.0.0.0/16"), Val: 2},
		{Prefix: mustPrefix(t, "::/0"), Val: 3},
		{Prefix: mustPrefix(t, "2001:db8::/32"), Val: 4},
	})
	for _, c := range []struct {
		addr string
		want int32
		ok   bool
	}{
		{"192.0.2.9", 1, true},
		{"::ffff:192.0.2.9", 1, true},
		{"::ffff:192.0.9.9", 2, true},
		{"::ffff:198.51.100.1", 0, false}, // unrouted IPv4: not the v6 default route
		{"2001:db8::1", 4, true},
		{"::1", 3, true},
		{"::fffe:192.0.2.9", 3, true}, // one bit off the mapped range: plain IPv6
	} {
		got, ok := ix.Lookup(netip.MustParseAddr(c.addr))
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	for _, c := range []struct {
		prefix string
		want   string // matched prefix, "" = no match
	}{
		{"::ffff:192.0.2.0/120", "192.0.2.0/24"},
		{"::ffff:192.0.2.128/121", "192.0.2.0/24"},
		{"::ffff:192.0.0.0/112", "192.0.0.0/16"},
		{"::ffff:192.0.2.77/128", "192.0.2.0/24"},
		{"::ffff:0.0.0.0/96", ""},     // all of IPv4: nothing that wide is indexed
		{"::ffff:0.0.0.0/95", "::/0"}, // wider than IPv4: an IPv6 prefix
		{"192.0.2.0/25", "192.0.2.0/24"},
	} {
		m, ok := ix.Match(netip.MustParsePrefix(c.prefix))
		switch {
		case c.want == "" && ok:
			t.Errorf("Match(%s) = %s, want no match", c.prefix, m.Prefix())
		case c.want != "" && (!ok || m.Prefix().String() != c.want):
			t.Errorf("Match(%s) = %v,%v want %s", c.prefix, m, ok, c.want)
		}
	}
	n := 0
	ix.WalkCovered(netip.MustParsePrefix("::ffff:192.0.0.0/112"), func(netip.Prefix, int32) bool { n++; return true })
	if n != 2 {
		t.Errorf("WalkCovered(::ffff:192.0.0.0/112) visited %d entries, want the 2 IPv4 ones", n)
	}
}

// TestGroupInPlace pins GroupInPlace to Group: the same groups either
// way, over items itself when they are in group order already, over a
// copy when they are not.
func TestGroupInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomTagged(rng, 2000)
	prefix := func(it *tagged) netip.Prefix { return it.p }
	sorted := lpm.Group(items, prefix)
	var inOrder []tagged
	sorted.Index().Walk(func(_ netip.Prefix, id int32) bool {
		inOrder = append(inOrder, sorted.At(id)...)
		return true
	})
	for _, tc := range []struct {
		name   string
		items  []tagged
		shared bool
	}{
		{"in group order", inOrder, true},
		{"in input order", items, false},
		{"with an invalid prefix", append(slices.Clone(inOrder), tagged{pos: -1}), false},
	} {
		before := slices.Clone(tc.items)
		g := lpm.GroupInPlace(tc.items, prefix)
		if !slices.Equal(tc.items, before) {
			t.Fatalf("%s: GroupInPlace modified its input", tc.name)
		}
		want := lpm.Group(tc.items, prefix)
		n := 0
		want.Index().Walk(func(p netip.Prefix, id int32) bool {
			got := g.Get(p)
			if !slices.Equal(got, want.At(id)) {
				t.Fatalf("%s: group %v = %v, Group's %v", tc.name, p, got, want.At(id))
			}
			n += len(got)
			return true
		})
		shared := n > 0 && &g.At(0)[0] == &tc.items[0]
		if shared != tc.shared {
			t.Errorf("%s: groups over the input itself = %v, want %v", tc.name, shared, tc.shared)
		}
	}
}
