package prefix2org

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Structure-aware corruption of binary snapshots. Flipping one bit in
// every seventh byte spent 50 s re-decoding string payload; what a
// hostile or rotten file can actually break is the framing. So:
//
//   - every bit of every byte of the framing (magic, header, directory,
//     the leading bytes of each section, where its counts live),
//   - every bit of the bytes within one of each section boundary,
//   - one bit at each of a fixed-seed sample of payload offsets.
//
// No mutation may panic, and a mutation the reader accepts must leave
// every accessor safe to call.

// span is a half-open byte range [lo, hi) of a snapshot image.
type span struct{ lo, hi int }

const (
	sectionHeadBytes = 32  // leading bytes of a section treated as framing
	payloadSamples   = 400 // single-bit flips spread over the whole image
)

// forEachCorruption applies the plan to data one bit at a time — in
// place, restoring the byte afterwards — and calls try on each
// mutation with panics turned into test failures.
func forEachCorruption(t *testing.T, data []byte, framing []span, boundaries []int, try func(mut []byte)) {
	t.Helper()
	flip := func(off int, mask byte) {
		if off < 0 || off >= len(data) {
			return
		}
		data[off] ^= mask
		defer func() {
			data[off] ^= mask
			if r := recover(); r != nil {
				t.Fatalf("panic on byte %d flipped by %#02x: %v", off, mask, r)
			}
		}()
		try(data)
	}
	seen := map[int]bool{}
	allBits := func(off int) {
		if seen[off] {
			return
		}
		seen[off] = true
		for bit := 0; bit < 8; bit++ {
			flip(off, 1<<bit)
		}
	}
	for _, s := range framing {
		for off := s.lo; off < s.hi; off++ {
			allBits(off)
		}
	}
	for _, b := range boundaries {
		for off := b - 1; off <= b+1; off++ {
			allBits(off)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < payloadSamples; i++ {
		flip(rng.Intn(len(data)), 1<<rng.Intn(8))
	}
}

// exerciseAccessors touches everything a served query can reach.
func exerciseAccessors(d *Dataset) {
	for j := 0; j < d.NumRecords(); j++ {
		_ = *d.RecordAt(j)
	}
	for j := 0; j < d.NumClusters(); j++ {
		_ = d.ClusterAt(j)
	}
	if d.NumRecords() > 0 {
		p := d.RecordAt(0).Prefix
		_, _ = d.LookupAddr(p.Addr())
		_, _ = d.Lookup(p)
		_, _ = d.LookupCovering(p)
	}
	d.MaterializeAll()
}

// TestV2RejectsCorruption drives truncated and bit-flipped v2 images
// through the view opener: truncation must error, and no corruption may
// panic — not at open time and not later when a lazy accessor touches
// the mapped bytes.
func TestV2RejectsCorruption(t *testing.T) {
	_, ds := buildWorldDataset(t)
	data := saveV2(t, ds)

	// v2 framing: magic, count + reserved word, the directory, and the
	// head of every section the directory points at.
	count := int(binary.LittleEndian.Uint32(data[8:]))
	dirEnd := 16 + 24*count
	framing := []span{{0, dirEnd}}
	boundaries := []int{dirEnd}
	for i := 0; i < count; i++ {
		e := data[16+24*i:]
		off := int(binary.LittleEndian.Uint64(e[8:]))
		end := off + int(binary.LittleEndian.Uint64(e[16:]))
		framing = append(framing, span{off, min(off+sectionHeadBytes, end)})
		boundaries = append(boundaries, off, end)
	}

	for _, n := range append([]int{0, 7, 8, 15, 16, 40, len(data) / 4, len(data) / 2, len(data) - 1}, boundaries[:len(boundaries)-1]...) {
		if _, err := openViewBytes(data[:n:n], nil); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	forEachCorruption(t, data, framing, boundaries, func(mut []byte) {
		v, err := openViewBytes(mut, nil)
		if err != nil {
			return
		}
		// The opener accepted the flip (it landed in string bytes or
		// stats): every lazy accessor must still be safe to run.
		exerciseAccessors(v)
	})
}

// TestV2RejectsUnevenCustomerChain moves one DC type from a record to the
// next in a v2 image: every column still checks on its own, but the
// first record now has fewer types than customers, and a reader that
// indexed its types by customer would run off the end. The opener must
// refuse the image.
func TestV2RejectsUnevenCustomerChain(t *testing.T) {
	_, ds := buildWorldDataset(t)
	data := saveV2(t, ds)
	var sec []byte
	for i := 0; i < int(binary.LittleEndian.Uint32(data[8:])); i++ {
		e := data[16+24*i:]
		if binary.LittleEndian.Uint32(e) == v2SecRecords {
			off := binary.LittleEndian.Uint64(e[8:])
			sec = data[off : off+binary.LittleEndian.Uint64(e[16:])]
		}
	}
	rc, err := parseRecCols(sec, math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := 0; i+1 < rc.n && !moved; i++ {
		if start, next := u32at(rc.dctStart, i), u32at(rc.dctStart, i+1); next > start {
			binary.LittleEndian.PutUint32(rc.dctStart[4*(i+1):], next-1) // aliases data
			moved = true
		}
	}
	if !moved {
		t.Fatal("no record with a DC type ahead of another record: the world tests nothing")
	}
	if _, err := openViewBytes(data, nil); err == nil {
		t.Fatal("a record with fewer DC types than Delegated Customers opened without error")
	}
}
