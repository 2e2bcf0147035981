package rpki

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// The reference queries answer by the definitions themselves: a
// linear scan, with no index, over the non-trust-anchor certificates'
// resources (masked, as the index masks them) and over the ROAs.

// refChildMostRC is the paper's "child-most RC in which a prefix is
// present": of the certificates with a resource containing p, the
// deepest, then the one whose containing resource is most specific,
// then the lowest SKI.
func refChildMostRC(r *Repository, p netip.Prefix) (*Certificate, bool) {
	var (
		best                *Certificate
		bestDepth, bestBits int
	)
	for i := range r.Certs {
		c := &r.Certs[i]
		if c.TrustAnchor {
			continue
		}
		for _, res := range c.Resources {
			res = res.Masked()
			if !netx.Contains(res, p.Masked()) {
				continue
			}
			d := r.depth[c.SKI]
			switch {
			case best == nil,
				d > bestDepth,
				d == bestDepth && res.Bits() > bestBits,
				d == bestDepth && res.Bits() == bestBits && c.SKI < best.SKI:
				best, bestDepth, bestBits = c, d, res.Bits()
			}
		}
	}
	return best, best != nil
}

// refValidate is RFC 6811 origin validation over the ROAs containing
// p: Valid if one of them authorizes origin at p's length, Invalid if
// none does, NotFound if there are none.
func refValidate(r *Repository, p netip.Prefix, origin uint32) ValidationState {
	state := StateNotFound
	for _, roa := range r.ROAs {
		if !netx.Contains(roa.Prefix.Masked(), p.Masked()) {
			continue
		}
		if roa.ASN == origin && p.Bits() <= roa.MaxLength {
			return StateValid
		}
		state = StateInvalid
	}
	return state
}

// refHasROA reports whether any ROA contains p.
func refHasROA(r *Repository, p netip.Prefix) bool {
	for _, roa := range r.ROAs {
		if netx.Contains(roa.Prefix.Masked(), p.Masked()) {
			return true
		}
	}
	return false
}

// sub returns a random prefix inside p, up to extra bits longer, with
// its host bits randomized when unmasked is set (registry data does
// record blocks that way).
func sub(rng *rand.Rand, p netip.Prefix, extra int, unmasked bool) netip.Prefix {
	a := p.Addr().As16()
	off := 0
	if p.Addr().Is4() {
		off = 96
	}
	bits := p.Bits() + rng.Intn(extra+1)
	if max := p.Addr().BitLen(); bits > max {
		bits = max
	}
	keep := off + bits
	if unmasked {
		keep = 128
	}
	for b := off + p.Bits(); b < keep; b++ {
		if rng.Intn(2) == 1 {
			a[b/8] |= 1 << (7 - b%8)
		}
	}
	addr := netip.AddrFrom16(a)
	if off == 96 {
		addr = addr.Unmap()
	}
	return netip.PrefixFrom(addr, bits)
}

// randomRepository builds a valid three-level certificate tree with
// the shapes that make the child-most rule interesting: resources
// listed by several certificates at equal depth (the SKI tie-break),
// nested resources inside one certificate, unmasked resources, and
// ROAs stacked on one prefix.
func randomRepository(t *testing.T, rng *rand.Rand) *Repository {
	t.Helper()
	r := NewRepository()
	pools := []netip.Prefix{mp("10.0.0.0/8"), mp("172.16.0.0/12"), mp("2001:db8::/32")}
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.RIPE, Resources: pools, TrustAnchor: true})
	var all []Certificate
	issue := func(parent *Certificate, ski string, n int) Certificate {
		c := Certificate{SKI: ski, AKI: parent.SKI, Subject: ski, Registry: alloc.RIPE}
		for i := 0; i < n; i++ {
			res := parent.Resources[rng.Intn(len(parent.Resources))]
			switch rng.Intn(4) {
			case 0: // the issuer's resource itself: equal-bits ties across depths
				c.Resources = append(c.Resources, res)
			default:
				c.Resources = append(c.Resources, sub(rng, res, 10, rng.Intn(5) == 0))
			}
		}
		return c
	}
	ta := r.Certs[0]
	for m := 0; m < 40; m++ {
		member := issue(&ta, fmt.Sprintf("M%02d", m), 1+rng.Intn(4))
		if m > 0 && rng.Intn(4) == 0 {
			// Also list another certificate's blocks (all inside the
			// TA's pools, so containment holds): equal-depth, equal-bits
			// ties for the SKI tie-break.
			member.Resources = append(member.Resources, all[rng.Intn(len(all))].Resources...)
		}
		all = append(all, member)
		for c := 0; c < rng.Intn(3); c++ {
			child := issue(&member, fmt.Sprintf("%s-C%d", member.SKI, c), 1+rng.Intn(3))
			all = append(all, child)
			if rng.Intn(2) == 0 {
				all = append(all, issue(&child, child.SKI+"-G", 1+rng.Intn(2)))
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, c := range all {
		r.AddCert(c)
	}
	for i := 0; i < 300; i++ {
		c := all[rng.Intn(len(all))]
		p := sub(rng, c.Resources[rng.Intn(len(c.Resources))], 6, false).Masked()
		max := p.Bits() + rng.Intn(p.Addr().BitLen()-p.Bits()+1)
		r.AddROA(ROA{Prefix: p, MaxLength: max, ASN: uint32(64500 + rng.Intn(6)), CertSKI: c.SKI})
	}
	if err := r.Build(); err != nil {
		t.Fatalf("random repository does not validate: %v", err)
	}
	return r
}

// TestQueriesMatchBruteForceReference: ChildMostRC, Validate and
// HasROA on the frozen lpm indexes answer exactly like the linear-scan
// references, over random repositories and masked, unmasked,
// uncovered and invalid query prefixes.
func TestQueriesMatchBruteForceReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomRepository(t, rng)
		queries := []netip.Prefix{
			{}, // invalid
			mp("0.0.0.0/0"), mp("::/0"), mp("10.0.0.0/8"), mp("11.0.0.0/8"),
			mp("2001:db8::/32"), mp("2001:db9::/32"),
		}
		for i := range r.Certs {
			for _, res := range r.Certs[i].Resources {
				queries = append(queries, res, sub(rng, res, 12, false), sub(rng, res, 12, true))
				if res.Bits() > 1 {
					queries = append(queries, netip.PrefixFrom(res.Addr(), res.Bits()-1).Masked())
				}
			}
		}
		for _, roa := range r.ROAs {
			queries = append(queries, roa.Prefix, sub(rng, roa.Prefix, 8, true))
		}
		for _, q := range queries {
			want, wantOK := refChildMostRC(r, q)
			got, ok := r.CertIndex().ChildMostRC(q)
			if ok != wantOK || got != want {
				t.Fatalf("seed %d: ChildMostRC(%s) = %v,%v; reference %v,%v", seed, q, got, ok, want, wantOK)
			}
			if r.CertIndex().Covered(q) != wantOK {
				t.Fatalf("seed %d: Covered(%s) = %v; reference %v", seed, q, !wantOK, wantOK)
			}
			if got, want := r.HasROA(q), refHasROA(r, q); got != want {
				t.Fatalf("seed %d: HasROA(%s) = %v; reference %v", seed, q, got, want)
			}
			for asn := uint32(64499); asn <= 64506; asn++ {
				if got, want := r.Validate(q, asn), refValidate(r, q, asn); got != want {
					t.Fatalf("seed %d: Validate(%s, AS%d) = %s; reference %s", seed, q, asn, got, want)
				}
			}
		}
	}
}

// TestQueriesZeroAlloc: the three per-prefix queries the resolve pass
// and the §8.2 case study call in their inner loops walk Match/Parent
// in place — no covering-chain slice per call.
func TestQueriesZeroAlloc(t *testing.T) {
	r := randomRepository(t, rand.New(rand.NewSource(3)))
	var deep netip.Prefix // a query under as many certificates as possible
	for i := range r.Certs {
		for _, res := range r.Certs[i].Resources {
			if res.Addr().Is4() && res.Bits() > deep.Bits() {
				deep = res.Masked()
			}
		}
	}
	roa := r.ROAs[0].Prefix
	for name, fn := range map[string]func(){
		"ChildMostRC":       func() { r.CertIndex().ChildMostRC(deep) },
		"ChildMostRC(miss)": func() { r.CertIndex().ChildMostRC(mp("192.0.2.0/24")) },
		"Validate":          func() { r.Validate(roa, 1) },
		"HasROA":            func() { r.HasROA(roa) },
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestWriteKeepsIndexesValid: serializing a built repository must not
// disturb it — Write used to sort Certs in place, re-pointing every
// *Certificate the indexes held.
func TestWriteKeepsIndexesValid(t *testing.T) {
	r := randomRepository(t, rand.New(rand.NewSource(5)))
	type answer struct {
		ski string
		ok  bool
	}
	ask := func() []answer {
		var out []answer
		for i := range r.Certs {
			for _, res := range r.Certs[i].Resources {
				c, ok := r.CertIndex().ChildMostRC(res)
				a := answer{ok: ok}
				if ok {
					a.ski = c.SKI
				}
				out = append(out, a)
			}
		}
		return out
	}
	before := ask()
	var first, second bytes.Buffer
	if err := r.Write(&first); err != nil {
		t.Fatal(err)
	}
	after := ask()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("ChildMostRC answer %d changed across Write: %v -> %v", i, before[i], after[i])
		}
	}
	for ski, c := range r.bydSKI {
		if c.SKI != ski {
			t.Fatalf("CertBySKI(%s) returns %s after Write", ski, c.SKI)
		}
	}
	if err := r.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("Write is not repeatable")
	}
}
