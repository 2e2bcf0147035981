package netx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"slices"
)

// Canonical returns p with its host bits zeroed. Prefixes read from WHOIS
// and BGP data are canonicalized at the parse boundary so the rest of the
// pipeline can compare them with ==.
func Canonical(p netip.Prefix) netip.Prefix {
	return p.Masked()
}

// MustParse parses s into a canonical prefix and panics on failure. It is
// intended for tests and for embedding literal prefixes in generators.
func MustParse(s string) netip.Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses s into a canonical prefix. Unlike netip.ParsePrefix it
// accepts (and masks away) host bits, matching how registry data files
// frequently record blocks (e.g. "193.0.10.1/24").
func ParsePrefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("netx: parse prefix %q: %w", s, err)
	}
	return p.Masked(), nil
}

// ParseRange converts an inclusive address range, as found in ARIN NetRange
// and RIPE inetnum records, into the minimal list of canonical CIDR
// prefixes covering exactly that range. Zones are dropped: a registry
// range has none.
func ParseRange(first, last netip.Addr) ([]netip.Prefix, error) {
	return AppendRange(nil, first, last)
}

// AppendRange is ParseRange into a caller's buffer: it appends the
// range's prefixes to dst.
func AppendRange(dst []netip.Prefix, first, last netip.Addr) ([]netip.Prefix, error) {
	if !first.IsValid() || !last.IsValid() {
		return nil, fmt.Errorf("netx: invalid range endpoint")
	}
	if first.Is4() != last.Is4() {
		return nil, fmt.Errorf("netx: mixed address families in range %s-%s", first, last)
	}
	first, last = first.WithZone(""), last.WithZone("")
	if last.Less(first) {
		return nil, fmt.Errorf("netx: inverted range %s-%s", first, last)
	}
	width := first.BitLen()
	cur, end := toU128(first), toU128(last)
	for {
		// The widest block starting at cur: as many host bits as cur's
		// alignment gives, and no more than fit before end — 2^host
		// addresses out of the end-cur+1 left. That count only overflows
		// for all of IPv6, which cur's alignment alone describes.
		host := min(cur.trailingZeros(), width)
		if left, overflow := end.sub(cur).next(); !overflow {
			host = min(host, left.bitLen()-1)
		}
		dst = append(dst, netip.PrefixFrom(cur.addr(first), width-host))
		blockLast := cur.or(lowOnes(host))
		if blockLast == end {
			return dst, nil
		}
		cur, _ = blockLast.next()
	}
}

// LastAddr returns the highest address contained in p, which must be
// valid.
func LastAddr(p netip.Prefix) netip.Addr {
	if !p.IsValid() {
		return netip.Addr{}
	}
	a := p.Addr()
	return toU128(a).or(lowOnes(a.BitLen() - p.Bits())).addr(a)
}

// u128 is an address as a number: all 128 bits of an IPv6 address, the
// low 32 of an IPv4 one.
type u128 struct{ hi, lo uint64 }

func toU128(a netip.Addr) u128 {
	if a.Is4() {
		b := a.As4()
		return u128{0, uint64(binary.BigEndian.Uint32(b[:]))}
	}
	b := a.As16()
	return u128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// addr converts back, to the family of like.
func (u u128) addr(like netip.Addr) netip.Addr {
	if like.Is4() {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(u.lo))
		return netip.AddrFrom4(b)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], u.hi)
	binary.BigEndian.PutUint64(b[8:], u.lo)
	return netip.AddrFrom16(b)
}

// lowOnes returns 2^n - 1, for n in 0..128.
func lowOnes(n int) u128 {
	switch {
	case n >= 128:
		return u128{^uint64(0), ^uint64(0)}
	case n > 64:
		return u128{1<<(n-64) - 1, ^uint64(0)}
	case n == 64:
		return u128{0, ^uint64(0)}
	default:
		return u128{0, 1<<n - 1}
	}
}

func (u u128) or(v u128) u128 { return u128{u.hi | v.hi, u.lo | v.lo} }

// sub returns u - v, for u >= v.
func (u u128) sub(v u128) u128 {
	lo, borrow := bits.Sub64(u.lo, v.lo, 0)
	hi, _ := bits.Sub64(u.hi, v.hi, borrow)
	return u128{hi, lo}
}

// next returns u + 1, and whether that wrapped round to zero.
func (u u128) next() (u128, bool) {
	lo, carry := bits.Add64(u.lo, 1, 0)
	hi, carry := bits.Add64(u.hi, 0, carry)
	return u128{hi, lo}, carry != 0
}

// trailingZeros is 128 for zero.
func (u u128) trailingZeros() int {
	if u.lo != 0 {
		return bits.TrailingZeros64(u.lo)
	}
	return 64 + bits.TrailingZeros64(u.hi)
}

func (u u128) bitLen() int {
	if u.hi != 0 {
		return 64 + bits.Len64(u.hi)
	}
	return bits.Len64(u.lo)
}

// NumAddresses returns the number of addresses covered by p as a float64.
// IPv6 blocks overflow uint64 for very short prefixes, and the pipeline
// only uses counts for ranking and cumulative-fraction figures, so a
// float64 is exact enough (and exact for all of IPv4).
func NumAddresses(p netip.Prefix) float64 {
	host := p.Addr().BitLen() - p.Bits()
	return math.Pow(2, float64(host))
}

// Contains reports whether outer covers inner: same family, outer no more
// specific than inner, and inner's network address inside outer.
func Contains(outer, inner netip.Prefix) bool {
	if outer.Addr().Is4() != inner.Addr().Is4() {
		return false
	}
	return outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
}

// Halves splits p into its two children. It panics when p is a host route,
// which callers must exclude; the delegation generators never subdivide
// past /32 (IPv4) or /128 (IPv6).
func Halves(p netip.Prefix) (lo, hi netip.Prefix) {
	bits := p.Bits() + 1
	if bits > p.Addr().BitLen() {
		panic(fmt.Sprintf("netx: cannot halve host route %s", p))
	}
	lo = netip.PrefixFrom(p.Addr(), bits)
	a := p.Addr().As16()
	bit := bits - 1
	if p.Addr().Is4() {
		bit += 96
	}
	a[bit/8] |= 1 << (7 - bit%8)
	hiAddr := netip.AddrFrom16(a)
	if p.Addr().Is4() {
		hiAddr = hiAddr.Unmap()
	}
	hi = netip.PrefixFrom(hiAddr, bits)
	return lo, hi
}

// NthSubprefix returns the n-th length-bits sub-prefix of p, counting from
// its network address. It is the workhorse of the synthetic delegation
// generator: carving a /16 into /24 customers is NthSubprefix(p, 24, i).
func NthSubprefix(p netip.Prefix, bits, n int) (netip.Prefix, error) {
	if bits < p.Bits() || bits > p.Addr().BitLen() {
		return netip.Prefix{}, fmt.Errorf("netx: sub-prefix length /%d out of range for %s", bits, p)
	}
	span := bits - p.Bits()
	if span < 63 && n >= 1<<span {
		return netip.Prefix{}, fmt.Errorf("netx: sub-prefix index %d out of range for %s -> /%d", n, p, bits)
	}
	a := p.Addr().As16()
	base := p.Bits()
	if p.Addr().Is4() {
		base += 96
	}
	for i := 0; i < span; i++ {
		if n&(1<<(span-1-i)) != 0 {
			bit := base + i
			a[bit/8] |= 1 << (7 - bit%8)
		}
	}
	addr := netip.AddrFrom16(a)
	if p.Addr().Is4() {
		addr = addr.Unmap()
	}
	return netip.PrefixFrom(addr, bits), nil
}

// Compare orders prefixes deterministically: by family (IPv4 first), then
// network address, then prefix length (shorter, i.e. less specific, first).
func Compare(a, b netip.Prefix) int {
	a4, b4 := a.Addr().Is4(), b.Addr().Is4()
	if a4 != b4 {
		if a4 {
			return -1
		}
		return 1
	}
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

// Sort sorts prefixes in place using Compare.
func Sort(ps []netip.Prefix) {
	slices.SortFunc(ps, Compare)
}

// Dedup sorts ps and removes duplicates in place, returning the shortened
// slice.
func Dedup(ps []netip.Prefix) []netip.Prefix {
	if len(ps) == 0 {
		return ps
	}
	Sort(ps)
	out := ps[:1]
	for _, p := range ps[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// TotalAddresses sums NumAddresses over ps. Overlapping prefixes are counted
// once: the slice is de-duplicated and covered more-specifics are skipped,
// mirroring how the paper accounts "routed address space".
func TotalAddresses(ps []netip.Prefix) float64 {
	cp := make([]netip.Prefix, len(ps))
	copy(cp, ps)
	cp = Dedup(cp)
	var total float64
	var last netip.Prefix
	haveLast := false
	for _, p := range cp {
		if haveLast && Contains(last, p) {
			continue
		}
		total += NumAddresses(p)
		last, haveLast = p, true
	}
	return total
}

// Bit returns the i-th bit (0 = most significant) of the address of p,
// counting within the address family's own bit width.
func Bit(a netip.Addr, i int) byte {
	b := a.As16()
	if a.Is4() {
		i += 96
	}
	return (b[i/8] >> (7 - i%8)) & 1
}
