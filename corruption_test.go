package prefix2org

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
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

// TestBinarySnapshotRejectsCorruption drives truncated and bit-flipped
// v1 images through the hardened legacy reader.
func TestBinarySnapshotRejectsCorruption(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var buf bytes.Buffer
	if err := ds.SaveBinaryV1(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// v1 framing: magic, then per section a tag byte, a uvarint length
	// and the body.
	framing := []span{{0, len(binaryMagic)}}
	var boundaries []int
	for off := len(binaryMagic); off < len(data); {
		n, w := binaryUvarint(t, data[off+1:])
		body := off + 1 + w
		framing = append(framing, span{off, min(body+sectionHeadBytes, body+int(n))})
		boundaries = append(boundaries, off)
		off = body + int(n)
	}
	boundaries = append(boundaries, len(data)-1)
	if len(boundaries) != 6 {
		t.Fatalf("walked %d v1 sections, want 5", len(boundaries)-1)
	}

	for _, n := range append([]int{9, len(data) / 4, len(data) / 2, len(data) - 1}, boundaries[:5]...) {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	forEachCorruption(t, data, framing, boundaries, func(mut []byte) {
		d, err := Load(bytes.NewReader(mut))
		if err != nil {
			return
		}
		// The reader accepted the flip (it landed in string bytes or
		// stats, or the magic now says JSON... which then must parse).
		exerciseAccessors(d)
	})
	// An input that merely starts like the magic is not mistaken for a
	// binary snapshot.
	if _, err := Load(strings.NewReader("P2OSNAP")); err == nil {
		t.Error("short magic accepted as binary or valid JSON")
	}
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
