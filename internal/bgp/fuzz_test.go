package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// Fuzz targets double as robustness tests: `go test` runs the seed corpus;
// `go test -fuzz=FuzzX` explores further. The invariants under fuzzing are
// "no panic, anything that parses re-encodes consistently, and the
// columnar Table of what parses answers as the map aggregation does".

func FuzzReadMRT(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMRT(&buf, []Entry{
		{Collector: "rv", PeerASN: 1, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASPath: []uint32{1, 2}},
		{Collector: "rrc", PeerASN: 2, Prefix: netip.MustParsePrefix("2001:db8::/32"), ASPath: []uint32{2}},
	})
	f.Add(buf.Bytes())
	var moas bytes.Buffer
	_ = WriteMRT(&moas, []Entry{
		{Collector: "rv", PeerASN: 1, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASPath: []uint32{1, 7}},
		{Collector: "rv", PeerASN: 2, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASPath: []uint32{2, 3}},
		{Collector: "rrc", PeerASN: 2, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASPath: []uint32{2, 3}},
		{Collector: "rrc", PeerASN: 2, Prefix: netip.MustParsePrefix("12.0.0.0/7"), ASPath: []uint32{2}},
		{Collector: "rrc", PeerASN: 2, Prefix: netip.MustParsePrefix("11.0.0.0/8")},
	})
	f.Add(moas.Bytes())
	f.Add([]byte("P2OMRT1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadMRT(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkTable(t, FromEntries(entries), refOf(entries))
		// Round trip what parsed.
		var out bytes.Buffer
		if err := WriteMRT(&out, entries); err != nil {
			return
		}
		back, err := ReadMRT(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("rewrite unparseable: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("roundtrip lost entries: %d vs %d", len(back), len(entries))
		}
	})
}
