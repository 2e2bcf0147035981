package netx

import (
	"math/rand"
	"net/netip"
	"testing"
)

// TestParseAddrBytesTable checks the explicit accept/reject grammar.
func TestParseAddrBytesTable(t *testing.T) {
	accept := []string{
		"0.0.0.0", "1.2.3.4", "255.255.255.255", "198.51.100.7",
		"10.0.0.1", "192.0.2.0",
		"::", "::1", "1::", "1::2", "fe80::1", "2001:db8::8:800:200c:417a",
		"1:2:3:4:5:6:7:8", "2001:DB8::1", "::ffff:1.2.3.4",
		"1:2:3:4:5:6:1.2.3.4", "::1.2.3.4", "abcd:ef01:2345:6789:abcd:ef01:2345:6789",
	}
	for _, s := range accept {
		got, ok := ParseAddrBytes([]byte(s))
		if !ok {
			t.Errorf("ParseAddrBytes(%q) rejected", s)
			continue
		}
		want, err := netip.ParseAddr(s)
		if err != nil {
			t.Fatalf("netip rejects fixture %q: %v", s, err)
		}
		if got != want {
			t.Errorf("ParseAddrBytes(%q) = %v, netip = %v", s, got, want)
		}
	}
	reject := []string{
		"", " ", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "1..2.3",
		"1.2.3.4 ", " 1.2.3.4", "1.2.3.4:80", "0x1.2.3.4", "1.2.3.-4",
		":", ":::", "1:::2", "1::2::3", "1:2", "12345::", "g::1",
		"1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7:1.2.3.4", "::0:0:0:0:0:0:0:0",
		"0:0:0:0:0:0:0:0:", "fe80::1%eth0", "1:1.2.3.4:8", "hostname",
		"1:2:3:4:5:6:7:", "::ffff:1.2.3.4.5",
	}
	for _, s := range reject {
		if got, ok := ParseAddrBytes([]byte(s)); ok {
			t.Errorf("ParseAddrBytes(%q) accepted as %v, want reject", s, got)
		}
	}
}

// TestParseAddrBytesEquivalence round-trips randomized addresses (and
// their netip string forms, which exercise :: compression) through both
// parsers: every string netip renders must parse back identically.
func TestParseAddrBytesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var s string
		if i%2 == 0 {
			var b [4]byte
			rng.Read(b[:])
			s = netip.AddrFrom4(b).String()
		} else {
			var b [16]byte
			rng.Read(b[:])
			// Sparse bytes so :: compression actually occurs.
			for j := range b {
				if rng.Intn(3) > 0 {
					b[j] = 0
				}
			}
			s = netip.AddrFrom16(b).String()
		}
		want, err := netip.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ParseAddrBytes([]byte(s))
		if !ok || got != want {
			t.Fatalf("ParseAddrBytes(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
}

// TestParseAddrBytesZeroAlloc pins the property the httpd bulk path's
// per-line alloc guard builds on.
func TestParseAddrBytesZeroAlloc(t *testing.T) {
	inputs := [][]byte{
		[]byte("198.51.100.7"),
		[]byte("2001:db8::8:800:200c:417a"),
		[]byte("::ffff:1.2.3.4"),
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ParseAddrBytes(inputs[i%len(inputs)]); !ok {
			t.Fatal("parse failed")
		}
		i++
	}); n != 0 {
		t.Errorf("ParseAddrBytes allocates %.1f times per call, want 0", n)
	}
}

func FuzzParseAddrBytes(f *testing.F) {
	for _, s := range []string{"1.2.3.4", "::1", "1:2:3:4:5:6:1.2.3.4", "fe80::1%eth0", "::"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := ParseAddrBytes(b)
		want, err := netip.ParseAddr(string(b))
		if !ok {
			return // rejections are allowed to be stricter (zones)
		}
		if err != nil {
			t.Fatalf("ParseAddrBytes(%q) accepted %v, netip rejects: %v", b, got, err)
		}
		if got != want {
			t.Fatalf("ParseAddrBytes(%q) = %v, netip = %v", b, got, want)
		}
	})
}

func BenchmarkParseAddrBytes(b *testing.B) {
	in := []byte("198.51.100.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseAddrBytes(in); !ok {
			b.Fatal("parse failed")
		}
	}
}

// TestParsePrefixBytes holds the accepted grammar to netip.ParsePrefix
// (host bits kept, as it keeps them) and lists what is turned away.
func TestParsePrefixBytes(t *testing.T) {
	for _, s := range []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.1.2.3/16", "198.51.100.7/32",
		"::/0", "2001:db8::/32", "2001:DB8:0:0::1/64", "::ffff:10.0.0.0/104", "1:2:3:4:5:6:7:8/128",
	} {
		got, ok := ParsePrefixBytes([]byte(s))
		want, err := netip.ParsePrefix(s)
		if err != nil {
			t.Fatalf("netip rejects fixture %q: %v", s, err)
		}
		if !ok || got != want {
			t.Errorf("ParsePrefixBytes(%q) = %v, %v; netip = %v", s, got, ok, want)
		}
	}
	for _, s := range []string{
		"", "/", "/8", "10.0.0.0", "10.0.0.0/", "10.0.0.0/33", "10.0.0.0/08", "10.0.0.0/00",
		"10.0.0.0/+8", "10.0.0.0/-1", "10.0.0.0/8 ", " 10.0.0.0/8", "10.0.0.0/8/8", "10.0.0/8",
		"10.0.0.0/1000", "10.0.0.0/1e1", "::/129", "fe80::1%eth0/64", "banana/8",
	} {
		if got, ok := ParsePrefixBytes([]byte(s)); ok {
			t.Errorf("ParsePrefixBytes(%q) accepted as %v, want reject", s, got)
		}
	}
	in := []byte("2001:db8::/32")
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ParsePrefixBytes(in); !ok {
			t.Fatal("parse failed")
		}
	}); n != 0 {
		t.Errorf("ParsePrefixBytes allocates %.1f times per call, want 0", n)
	}
}
