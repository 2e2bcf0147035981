package lpm_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/prefix2org/prefix2org/internal/lpm"
)

// viewOf encodes ix and opens the result as a zero-copy index. The
// payload is placed at the front of a fresh allocation, which Go
// aligns to at least 8 bytes, so the test exercises the aliasing path
// on little-endian hosts.
func viewOf(t *testing.T, ix *lpm.Index) *lpm.Index {
	t.Helper()
	data := ix.AppendColumns(make([]byte, 0, 1<<16))
	v, err := lpm.ViewColumns(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestViewColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	prefixes := randomWorld(rng, 2000)
	items := make([]lpm.Item, 0, len(prefixes))
	for i, p := range prefixes {
		items = append(items, lpm.Item{Prefix: p, Val: int32(i)})
	}
	ix := lpm.Freeze(items)
	v := viewOf(t, ix)
	if v.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", v.Len(), ix.Len())
	}
	// Re-encoding the view must be byte-identical: the columns are the
	// same data, only their backing differs.
	a, b := ix.AppendColumns(nil), v.AppendColumns(nil)
	if string(a) != string(b) {
		t.Fatal("view re-encode diverged from index encode")
	}
	for trial := 0; trial < 10000; trial++ {
		p := prefixes[rng.Intn(len(prefixes))]
		q := netip.PrefixFrom(p.Addr(), rng.Intn(p.Bits()+1)).Masked()
		wc, vc := ix.CoveringInto(q, nil), v.CoveringInto(q, nil)
		if len(wc) != len(vc) {
			t.Fatalf("chains diverged for %s: index %v view %v", q, wc, vc)
		}
		for i := range wc {
			if wc[i] != vc[i] {
				t.Fatalf("chains diverged for %s: index %v view %v", q, wc, vc)
			}
		}
	}
	// Walk must visit identical entries in identical order.
	type ent struct {
		p netip.Prefix
		v int32
	}
	var we, ve []ent
	ix.Walk(func(p netip.Prefix, val int32) bool { we = append(we, ent{p, val}); return true })
	v.Walk(func(p netip.Prefix, val int32) bool { ve = append(ve, ent{p, val}); return true })
	if len(we) != len(ve) {
		t.Fatalf("walk lengths diverged: %d vs %d", len(we), len(ve))
	}
	for i := range we {
		if we[i] != ve[i] {
			t.Fatalf("walk entry %d diverged: %v vs %v", i, we[i], ve[i])
		}
	}
}

func TestViewColumnsEmpty(t *testing.T) {
	ix := lpm.Freeze(nil)
	v := viewOf(t, ix)
	if v.Len() != 0 {
		t.Fatalf("Len = %d, want 0", v.Len())
	}
	if _, ok := v.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty view matched an address")
	}
}

// TestViewColumnsUnaligned forces the copying fallback by offsetting
// the payload one byte into its buffer: the result must still answer
// identically.
func TestViewColumnsUnaligned(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 0},
		{Prefix: mustPrefix(t, "10.1.0.0/16"), Val: 1},
		{Prefix: mustPrefix(t, "2001:db8::/32"), Val: 2},
	})
	data := ix.AppendColumns(nil)
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	v, err := lpm.ViewColumns(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := v.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || got != 1 {
		t.Fatalf("unaligned view Lookup = %d,%v want 1,true", got, ok)
	}
}

func TestViewColumnsRejectsCorruption(t *testing.T) {
	ix := lpm.Freeze([]lpm.Item{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: 0},
		{Prefix: mustPrefix(t, "10.1.0.0/16"), Val: 1},
	})
	good := ix.AppendColumns(nil)
	for cut := 0; cut < len(good); cut++ {
		if _, err := lpm.ViewColumns(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := lpm.ViewColumns(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if dec, err := lpm.ViewColumns(bad); err == nil {
			// A flip may still be structurally valid (it only changed a
			// val); it must at least re-encode to exactly what it read.
			if string(dec.AppendColumns(nil)) != string(bad) {
				t.Errorf("byte %d: corrupt payload opened inconsistently", i)
			}
		}
	}
}

// TestViewLookupZeroAlloc pins the serve-path property the v2 snapshot
// depends on: lookups through a view allocate nothing, same as the
// heap index.
func TestViewLookupZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prefixes := randomWorld(rng, 3000)
	items := make([]lpm.Item, 0, len(prefixes))
	for i, p := range prefixes {
		items = append(items, lpm.Item{Prefix: p, Val: int32(i)})
	}
	v := viewOf(t, lpm.Freeze(items))
	addr := netip.MustParseAddr("10.1.2.3")
	if n := testing.AllocsPerRun(200, func() {
		v.Lookup(addr)
	}); n != 0 {
		t.Errorf("view Lookup allocates %.1f times per op, want 0", n)
	}
}
