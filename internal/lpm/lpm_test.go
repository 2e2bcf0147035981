package lpm_test

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p.Masked()
}

func TestLookupBasics(t *testing.T) {
	items := []lpm.Item{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 0},
		{Prefix: mustPrefix(t, "10.1.0.0/16"), Val: 1},
		{Prefix: mustPrefix(t, "10.1.2.0/24"), Val: 2},
		{Prefix: mustPrefix(t, "192.168.0.0/16"), Val: 3},
		{Prefix: mustPrefix(t, "2001:db8::/32"), Val: 4},
		{Prefix: mustPrefix(t, "2001:db8:1::/48"), Val: 5},
		{Prefix: mustPrefix(t, "0.0.0.0/0"), Val: 6},
	}
	ix := lpm.Freeze(items)
	if got := ix.Len(); got != len(items) {
		t.Fatalf("Len = %d, want %d", got, len(items))
	}
	cases := []struct {
		addr string
		want int32
		ok   bool
	}{
		{"10.1.2.3", 2, true},
		{"10.1.9.9", 1, true},
		{"10.200.0.1", 0, true},
		{"192.168.44.1", 3, true},
		{"11.0.0.1", 6, true}, // default route
		{"2001:db8:1::5", 5, true},
		{"2001:db8:ffff::1", 4, true},
		{"2001:dead::1", 0, false}, // no v6 default route
	}
	for _, c := range cases {
		got, ok := ix.Lookup(netip.MustParseAddr(c.addr))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%s) = %d,%v want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	// LookupPrefix: an unindexed sub-prefix resolves to its covering
	// entry; an indexed prefix resolves to itself.
	if v, ok := ix.LookupPrefix(mustPrefix(t, "10.1.2.128/25")); !ok || v != 2 {
		t.Errorf("LookupPrefix(10.1.2.128/25) = %d,%v want 2,true", v, ok)
	}
	if v, ok := ix.LookupPrefix(mustPrefix(t, "10.1.0.0/16")); !ok || v != 1 {
		t.Errorf("LookupPrefix(10.1.0.0/16) = %d,%v want 1,true", v, ok)
	}
	// A prefix less specific than 10.0.0.0/8 is covered only by the
	// default route.
	if v, ok := ix.LookupPrefix(mustPrefix(t, "10.0.0.0/7")); !ok || v != 6 {
		t.Errorf("LookupPrefix(10.0.0.0/7) = %d,%v want 6,true", v, ok)
	}
	chain := ix.CoveringInto(mustPrefix(t, "10.1.2.0/24"), nil)
	want := []int32{6, 0, 1, 2}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestLookupPrefixDefaultRouteCoversShort(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "0.0.0.0/0"), Val: 9},
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 1},
	})
	if v, ok := ix.LookupPrefix(mustPrefix(t, "10.0.0.0/7")); !ok || v != 9 {
		t.Errorf("LookupPrefix(/7) = %d,%v want 9,true (only /0 covers a /7)", v, ok)
	}
}

func TestFreezeDuplicatesAndInvalid(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 1},
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 7},
		{Prefix: netip.Prefix{}, Val: 3},
	})
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if v, ok := ix.Lookup(netip.MustParseAddr("10.1.1.1")); !ok || v != 7 {
		t.Errorf("duplicate collapse: got %d,%v want 7,true", v, ok)
	}
}

// randomWorld generates a nested synthetic prefix set exercising deep
// covering chains, sibling fan-out, and both families.
func randomWorld(rng *rand.Rand, n int) []netip.Prefix {
	var out []netip.Prefix
	seen := map[netip.Prefix]bool{}
	add := func(p netip.Prefix) {
		p = p.Masked()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for len(out) < n {
		if rng.Intn(4) == 0 { // v6
			a := netip.AddrFrom16([16]byte{0x20, 0x01, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			bits := 16 + rng.Intn(14)*8
			p := netip.PrefixFrom(a, bits)
			add(p)
			// a nested more-specific under it half of the time
			if rng.Intn(2) == 0 && bits+8 <= 128 {
				add(netip.PrefixFrom(a, bits+rng.Intn(8)+1))
			}
		} else {
			a := netip.AddrFrom4([4]byte{byte(10 + rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(4) * 64)})
			bits := 8 + rng.Intn(25)
			p := netip.PrefixFrom(a, bits)
			add(p)
			if rng.Intn(2) == 0 && bits < 32 {
				add(netip.PrefixFrom(a, bits+rng.Intn(32-bits)+1))
			}
		}
	}
	return out
}

// ref is the brute-force oracle the index is checked against: the
// masked items, keyed by prefix.
type ref[V any] map[netip.Prefix]V

// chain returns the stored prefixes containing q, least specific
// first: the covering chain by its definition, probed at every prefix
// length from q's own down to 0. An invalid q has no chain.
func (r ref[V]) chain(q netip.Prefix) []netip.Prefix {
	var out []netip.Prefix
	for b := q.Bits(); b >= 0; b-- {
		p := netip.PrefixFrom(q.Addr(), b).Masked()
		if _, ok := r[p]; ok {
			out = append(out, p)
		}
	}
	slices.Reverse(out)
	return out
}

// covered returns the prefixes of items that q contains, in canonical
// order: a filter of the item list, with no index.
func covered(items []netip.Prefix, q netip.Prefix) []netip.Prefix {
	q = q.Masked()
	var out []netip.Prefix
	for _, p := range items {
		if netx.Contains(q, p) {
			out = append(out, p)
		}
	}
	netx.Sort(out)
	return out
}

// TestEquivalenceWithBruteForce is the property test: on a random
// synthetic world, the frozen index and its zero-copy view answer
// longest-prefix-match and covering-chain queries — Lookup,
// LookupPrefix, CoveringInto and the Match/Parent walk — exactly as
// the brute-force reference does.
func TestEquivalenceWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prefixes := randomWorld(rng, 4000)
	want := ref[int32]{}
	items := make([]lpm.Item, 0, len(prefixes))
	for i, p := range prefixes {
		want[p] = int32(i)
		items = append(items, lpm.Item{Prefix: p, Val: int32(i)})
	}
	frozen := lpm.Freeze(items)
	indexes := []struct {
		name string
		ix   *lpm.Index
	}{{"index", frozen}, {"view", viewOf(t, frozen)}}
	for _, x := range indexes {
		if x.ix.Len() != len(want) {
			t.Fatalf("%s: Len = %d, reference has %d", x.name, x.ix.Len(), len(want))
		}
	}

	randAddr := func() netip.Addr {
		if rng.Intn(4) == 0 {
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			for i := 2; i < 16; i++ {
				b[i] = byte(rng.Intn(256))
			}
			b[2] = byte(rng.Intn(5)) // mostly inside the generated space
			return netip.AddrFrom16(b)
		}
		return netip.AddrFrom4([4]byte{byte(8 + rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}

	for trial := 0; trial < 20000; trial++ {
		a := randAddr()
		chain := want.chain(netip.PrefixFrom(a, a.BitLen()))
		for _, x := range indexes {
			got, ok := x.ix.Lookup(a)
			if ok != (len(chain) > 0) || ok && got != want[chain[len(chain)-1]] {
				t.Fatalf("%s: Lookup(%s) = %d,%v; reference chain %v", x.name, a, got, ok, chain)
			}
		}
	}
	// Prefix queries at random lengths, including the stored prefixes
	// themselves.
	for trial := 0; trial < 20000; trial++ {
		var q netip.Prefix
		if trial%3 == 0 {
			q = prefixes[rng.Intn(len(prefixes))]
		} else {
			a := randAddr()
			q = netip.PrefixFrom(a, rng.Intn(a.BitLen()+1)).Masked()
		}
		chain := want.chain(q)
		for _, x := range indexes {
			got, ok := x.ix.LookupPrefix(q)
			if ok != (len(chain) > 0) || ok && got != want[chain[len(chain)-1]] {
				t.Fatalf("%s: LookupPrefix(%s) = %d,%v; reference chain %v", x.name, q, got, ok, chain)
			}
			gotChain := x.ix.CoveringInto(q, nil)
			if len(gotChain) != len(chain) {
				t.Fatalf("%s: CoveringInto(%s) = %v; reference chain %v", x.name, q, gotChain, chain)
			}
			for i, p := range chain {
				if gotChain[i] != want[p] {
					t.Fatalf("%s: CoveringInto(%s)[%d] = %d, reference has %s = %d", x.name, q, i, gotChain[i], p, want[p])
				}
			}
			// Match and Parent step down the chain, most specific first.
			i := len(chain) - 1
			for m, ok := x.ix.Match(q); ok; m, ok = m.Parent() {
				if i < 0 || m.Prefix() != chain[i] || m.Val() != want[chain[i]] {
					t.Fatalf("%s: Match(%s) walk step %d = %s (%d); reference chain %v", x.name, q, len(chain)-1-i, m.Prefix(), m.Val(), chain)
				}
				i--
			}
			if i != -1 {
				t.Fatalf("%s: Match(%s) walk stopped %d short of the reference chain %v", x.name, q, i+1, chain)
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefixes := randomWorld(rng, 1500)
	items := make([]lpm.Item, 0, len(prefixes))
	for i, p := range prefixes {
		items = append(items, lpm.Item{Prefix: p, Val: int32(i)})
	}
	ix := lpm.Freeze(items)
	data := ix.AppendBinary(nil)
	back, err := lpm.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), ix.Len())
	}
	if string(back.AppendBinary(nil)) != string(data) {
		t.Fatal("re-encode diverged")
	}
	for trial := 0; trial < 5000; trial++ {
		p := prefixes[rng.Intn(len(prefixes))]
		a, b := ix.CoveringInto(p, nil), back.CoveringInto(p, nil)
		if len(a) != len(b) {
			t.Fatalf("chains diverged for %s", p)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("chains diverged for %s", p)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 0},
		{Prefix: mustPrefix(t, "10.1.0.0/16"), Val: 1},
	})
	good := ix.AppendBinary(nil)
	if _, err := lpm.Decode(good[:len(good)-3]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := lpm.Decode(append(append([]byte(nil), good...), 0xAB)); err == nil {
		t.Error("trailing bytes accepted")
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if dec, err := lpm.Decode(bad); err == nil {
			// A flip may still be structurally valid (e.g. it only
			// changed a val); it must at least decode consistently.
			if string(dec.AppendBinary(nil)) != string(bad) {
				t.Errorf("byte %d: corrupt payload decoded inconsistently", i)
			}
		}
	}
}

func TestWalkOrder(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "2001:db8::/32"), Val: 3},
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 0},
		{Prefix: mustPrefix(t, "10.0.0.0/16"), Val: 1},
		{Prefix: mustPrefix(t, "9.0.0.0/8"), Val: 2},
	})
	var got []int32
	ix.Walk(func(p netip.Prefix, v int32) bool {
		got = append(got, v)
		return true
	})
	want := []int32{2, 0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", got, want)
		}
	}
}

// TestLookupZeroAlloc is the allocation-regression guard for the
// frozen index itself: a single-address lookup and a buffered covering
// chain must not touch the heap.
func TestLookupZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prefixes := randomWorld(rng, 3000)
	items := make([]lpm.Item, 0, len(prefixes))
	for i, p := range prefixes {
		items = append(items, lpm.Item{Prefix: p, Val: int32(i)})
	}
	ix := lpm.Freeze(items)
	addr := netip.MustParseAddr("10.1.2.3")
	if n := testing.AllocsPerRun(200, func() {
		ix.Lookup(addr)
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f times per op, want 0", n)
	}
	q := mustPrefix(t, "10.1.2.0/24")
	buf := make([]int32, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = ix.CoveringInto(q, buf[:0])
	}); n != 0 {
		t.Errorf("CoveringInto allocates %.1f times per op, want 0", n)
	}
}
