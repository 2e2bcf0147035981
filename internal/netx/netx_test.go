package netx

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func TestParsePrefixMasksHostBits(t *testing.T) {
	p, err := ParsePrefix("193.0.10.1/24")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "193.0.10.0/24"; got != want {
		t.Errorf("ParsePrefix = %s, want %s", got, want)
	}
}

func TestParsePrefixRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "2001:db8::/129", "banana/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestLastAddr(t *testing.T) {
	cases := []struct{ in, want string }{
		{"10.0.0.0/8", "10.255.255.255"},
		{"192.168.4.0/22", "192.168.7.255"},
		{"192.168.4.4/32", "192.168.4.4"},
		{"2001:db8::/32", "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"::/0", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
	}
	for _, c := range cases {
		got := LastAddr(MustParse(c.in))
		if got.String() != c.want {
			t.Errorf("LastAddr(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestParseRangeExact(t *testing.T) {
	cases := []struct {
		first, last string
		want        []string
	}{
		{"10.0.0.0", "10.255.255.255", []string{"10.0.0.0/8"}},
		{"10.0.0.0", "10.0.0.255", []string{"10.0.0.0/24"}},
		{"10.0.0.0", "10.0.1.255", []string{"10.0.0.0/23"}},
		{"10.0.0.0", "10.0.2.255", []string{"10.0.0.0/23", "10.0.2.0/24"}},
		{"10.0.0.5", "10.0.0.5", []string{"10.0.0.5/32"}},
		{"192.168.0.1", "192.168.0.2", []string{"192.168.0.1/32", "192.168.0.2/32"}},
	}
	for _, c := range cases {
		ps, err := ParseRange(netip.MustParseAddr(c.first), netip.MustParseAddr(c.last))
		if err != nil {
			t.Fatalf("ParseRange(%s,%s): %v", c.first, c.last, err)
		}
		if len(ps) != len(c.want) {
			t.Fatalf("ParseRange(%s,%s) = %v, want %v", c.first, c.last, ps, c.want)
		}
		for i := range ps {
			if ps[i].String() != c.want[i] {
				t.Errorf("ParseRange(%s,%s)[%d] = %s, want %s", c.first, c.last, i, ps[i], c.want[i])
			}
		}
	}
}

func TestParseRangeErrors(t *testing.T) {
	v4 := netip.MustParseAddr("10.0.0.0")
	v6 := netip.MustParseAddr("2001:db8::")
	if _, err := ParseRange(v6, v4); err == nil {
		t.Error("mixed families accepted")
	}
	if _, err := ParseRange(netip.MustParseAddr("10.0.0.9"), netip.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := ParseRange(netip.Addr{}, v4); err == nil {
		t.Error("zero addr accepted")
	}
}

// Property: ParseRange output covers exactly [first,last] with no overlap.
func TestParseRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := rng.Uint32()
		b := rng.Uint32()
		if a > b {
			a, b = b, a
		}
		first := addr4(a)
		last := addr4(b)
		ps, err := ParseRange(first, last)
		if err != nil {
			t.Fatalf("ParseRange(%s,%s): %v", first, last, err)
		}
		var total float64
		prev := netip.Addr{}
		for j, p := range ps {
			if j == 0 {
				if p.Addr() != first {
					t.Fatalf("first block %s does not start at %s", p, first)
				}
			} else if p.Addr() != prev.Next() {
				t.Fatalf("gap/overlap between blocks at %s (prev last %s)", p, prev)
			}
			prev = LastAddr(p)
			total += NumAddresses(p)
		}
		if prev != last {
			t.Fatalf("last block ends at %s, want %s", prev, last)
		}
		if want := float64(b-a) + 1; total != want {
			t.Fatalf("covered %v addresses, want %v", total, want)
		}
	}
}

func addr4(u uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

func TestNumAddresses(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"10.0.0.0/8", 1 << 24},
		{"10.0.0.0/24", 256},
		{"10.0.0.1/32", 1},
		{"2001:db8::/126", 4},
	}
	for _, c := range cases {
		if got := NumAddresses(MustParse(c.in)); got != c.want {
			t.Errorf("NumAddresses(%s) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		outer, inner string
		want         bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"10.0.0.0/8", "2001:db8::/32", false},
		{"::/0", "2001:db8::/32", true},
	}
	for _, c := range cases {
		if got := Contains(MustParse(c.outer), MustParse(c.inner)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.outer, c.inner, got, c.want)
		}
	}
}

func TestHalves(t *testing.T) {
	lo, hi := Halves(MustParse("10.0.0.0/8"))
	if lo.String() != "10.0.0.0/9" || hi.String() != "10.128.0.0/9" {
		t.Errorf("Halves = %s, %s", lo, hi)
	}
	lo, hi = Halves(MustParse("2001:db8::/32"))
	if lo.String() != "2001:db8::/33" || hi.String() != "2001:db8:8000::/33" {
		t.Errorf("Halves v6 = %s, %s", lo, hi)
	}
}

func TestHalvesPanicsOnHostRoute(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Halves(/32) did not panic")
		}
	}()
	Halves(MustParse("10.0.0.1/32"))
}

func TestNthSubprefix(t *testing.T) {
	p := MustParse("10.0.0.0/16")
	cases := []struct {
		bits, n int
		want    string
	}{
		{24, 0, "10.0.0.0/24"},
		{24, 1, "10.0.1.0/24"},
		{24, 255, "10.0.255.0/24"},
		{17, 1, "10.0.128.0/17"},
		{16, 0, "10.0.0.0/16"},
	}
	for _, c := range cases {
		got, err := NthSubprefix(p, c.bits, c.n)
		if err != nil {
			t.Fatalf("NthSubprefix(%d,%d): %v", c.bits, c.n, err)
		}
		if got.String() != c.want {
			t.Errorf("NthSubprefix(%d,%d) = %s, want %s", c.bits, c.n, got, c.want)
		}
	}
	if _, err := NthSubprefix(p, 24, 256); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NthSubprefix(p, 8, 0); err == nil {
		t.Error("wider-than-parent length accepted")
	}
}

func TestNthSubprefixV6(t *testing.T) {
	p := MustParse("2001:db8::/32")
	got, err := NthSubprefix(p, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "2001:db8:3::/48" {
		t.Errorf("NthSubprefix v6 = %s", got)
	}
}

// Property: every NthSubprefix result is contained in its parent, and
// consecutive indices are adjacent and non-overlapping.
func TestNthSubprefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent, _ := NthSubprefix(MustParse("0.0.0.0/0"), 8+rng.Intn(8), rng.Intn(200))
		span := rng.Intn(8)
		bits := parent.Bits() + span
		n := rng.Intn(1 << span)
		sub, err := NthSubprefix(parent, bits, n)
		if err != nil {
			return false
		}
		if !Contains(parent, sub) {
			return false
		}
		if n > 0 {
			prev, _ := NthSubprefix(parent, bits, n-1)
			if LastAddr(prev).Next() != sub.Addr() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompareAndSort(t *testing.T) {
	ps := []netip.Prefix{
		MustParse("2001:db8::/32"),
		MustParse("10.0.0.0/16"),
		MustParse("10.0.0.0/8"),
		MustParse("9.0.0.0/8"),
	}
	Sort(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "2001:db8::/32"}
	for i := range ps {
		if ps[i].String() != want[i] {
			t.Errorf("Sort[%d] = %s, want %s", i, ps[i], want[i])
		}
	}
	if Compare(ps[0], ps[0]) != 0 {
		t.Error("Compare(x,x) != 0")
	}
}

func TestDedup(t *testing.T) {
	ps := []netip.Prefix{MustParse("10.0.0.0/8"), MustParse("10.0.0.0/8"), MustParse("10.0.0.0/16")}
	got := Dedup(ps)
	if len(got) != 2 {
		t.Errorf("Dedup len = %d, want 2", len(got))
	}
}

func TestTotalAddressesSkipsCovered(t *testing.T) {
	ps := []netip.Prefix{
		MustParse("10.0.0.0/8"),
		MustParse("10.1.0.0/16"), // covered
		MustParse("11.0.0.0/16"),
		MustParse("11.0.0.0/16"), // duplicate
	}
	got := TotalAddresses(ps)
	want := float64(1<<24 + 1<<16)
	if got != want {
		t.Errorf("TotalAddresses = %v, want %v", got, want)
	}
}

func TestBit(t *testing.T) {
	a := netip.MustParseAddr("128.0.0.1")
	if Bit(a, 0) != 1 {
		t.Error("bit 0 of 128.0.0.1 should be 1")
	}
	if Bit(a, 31) != 1 {
		t.Error("bit 31 of 128.0.0.1 should be 1")
	}
	if Bit(a, 1) != 0 {
		t.Error("bit 1 of 128.0.0.1 should be 0")
	}
	v6 := netip.MustParseAddr("8000::")
	if Bit(v6, 0) != 1 {
		t.Error("bit 0 of 8000:: should be 1")
	}
}

// parseRangeReference and lastAddrReference are ParseRange and LastAddr
// as they stood before both became mask arithmetic, kept verbatim: one
// candidate length at a time, one host bit at a time.
func parseRangeReference(first, last netip.Addr) ([]netip.Prefix, error) {
	if !first.IsValid() || !last.IsValid() {
		return nil, fmt.Errorf("netx: invalid range endpoint")
	}
	if first.Is4() != last.Is4() {
		return nil, fmt.Errorf("netx: mixed address families in range %s-%s", first, last)
	}
	if last.Less(first) {
		return nil, fmt.Errorf("netx: inverted range %s-%s", first, last)
	}
	var out []netip.Prefix
	cur := first
	for {
		// Widest prefix starting at cur that does not pass last.
		bits := cur.BitLen()
		plen := bits
		for plen > 0 {
			cand := netip.PrefixFrom(cur, plen-1).Masked()
			if cand.Addr() != cur {
				break // cur is not aligned for a wider prefix
			}
			if lastAddrReference(cand).Compare(last) > 0 {
				break // wider prefix would overshoot the range
			}
			plen--
		}
		p := netip.PrefixFrom(cur, plen)
		out = append(out, p)
		la := lastAddrReference(p)
		if la.Compare(last) >= 0 {
			return out, nil
		}
		cur = la.Next()
	}
}

func lastAddrReference(p netip.Prefix) netip.Addr {
	a := p.Addr().As16()
	bits := p.Bits()
	if p.Addr().Is4() {
		bits += 96
	}
	for b := bits; b < 128; b++ {
		a[b/8] |= 1 << (7 - b%8)
	}
	addr := netip.AddrFrom16(a)
	if p.Addr().Is4() {
		return addr.Unmap()
	}
	return addr
}

// TestParseRangeMatchesReference holds the closed forms to the loops they
// replaced, over random ranges of both families: endpoints drawn at every
// scale, from neighbours to the whole address space, and biased towards
// aligned starts and all-ones ends, where a block boundary falls.
func TestParseRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	draw := func(width int) (netip.Addr, netip.Addr) {
		var a, b [16]byte
		rng.Read(a[:])
		switch rng.Intn(4) {
		case 0: // an aligned start
			for i := 16 - rng.Intn(width/8+1); i < 16; i++ {
				a[i] = 0
			}
		case 1: // the bottom of the address space
			a = [16]byte{}
		}
		b = a
		// last differs from first below a random bit.
		for i := 16 - width/8 + rng.Intn(width/8+1); i < 16; i++ {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				b[i] = 0xff
			}
		}
		if width == 32 {
			return netip.AddrFrom4([4]byte(a[12:])), netip.AddrFrom4([4]byte(b[12:]))
		}
		return netip.AddrFrom16(a), netip.AddrFrom16(b)
	}
	for i := 0; i < 4000; i++ {
		first, last := draw([]int{32, 128}[i%2])
		if last.Less(first) {
			first, last = last, first
		}
		got, err := ParseRange(first, last)
		if err != nil {
			t.Fatalf("ParseRange(%s, %s): %v", first, last, err)
		}
		want, err := parseRangeReference(first, last)
		if err != nil {
			t.Fatalf("reference(%s, %s): %v", first, last, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ParseRange(%s, %s) = %v, reference %v", first, last, got, want)
		}
		for _, p := range got {
			if la, ref := LastAddr(p), lastAddrReference(p); la != ref {
				t.Fatalf("LastAddr(%s) = %s, reference %s", p, la, ref)
			}
		}
	}
	// Both families whole, and a 4in6 range, which stays IPv6.
	for _, c := range [][2]string{
		{"0.0.0.0", "255.255.255.255"},
		{"::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"::1", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe"},
		{"::ffff:10.0.0.0", "::ffff:10.0.2.255"},
	} {
		first, last := netip.MustParseAddr(c[0]), netip.MustParseAddr(c[1])
		got, err := ParseRange(first, last)
		want, _ := parseRangeReference(first, last)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("ParseRange(%s, %s) = %v, %v; reference %v", first, last, got, err, want)
		}
	}
}

// TestParseRangeUnaligned is iporg's case (ROADMAP item 5): a range that
// is no single CIDR block comes out as exactly the blocks that tile it.
func TestParseRangeUnaligned(t *testing.T) {
	got, err := ParseRange(netip.MustParseAddr("204.110.219.0"), netip.MustParseAddr("204.110.221.255"))
	if err != nil {
		t.Fatal(err)
	}
	want := []netip.Prefix{MustParse("204.110.219.0/24"), MustParse("204.110.220.0/23")}
	if !slices.Equal(got, want) {
		t.Errorf("204.110.219.0 - 204.110.221.255 = %v, want %v", got, want)
	}
}

// TestParseRangeDropsZones pins what the one-bit-at-a-time loop got
// wrong: a zoned endpoint never compared equal to the unzoned addresses
// the loop produced.
func TestParseRangeDropsZones(t *testing.T) {
	got, err := ParseRange(netip.MustParseAddr("fe80::%eth0"), netip.MustParseAddr("fe80::ff%eth0"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []netip.Prefix{MustParse("fe80::/120")}; !slices.Equal(got, want) {
		t.Errorf("zoned range = %v, want %v", got, want)
	}
}
