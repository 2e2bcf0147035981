package lpm

import (
	"encoding/binary"
	"fmt"
)

// Binary layout of a frozen index, embedded as one section of the
// write-only v1 dataset snapshot (see serialize_binary.go at the repo
// root and ARCHITECTURE.md; v2 embeds AppendColumns instead): for each
// family, v4 then v6, a uvarint entry count followed by the five
// columns written whole — hi and lo as little-endian uint64, bits as
// raw bytes, parent and val as little-endian uint32 (parent -1 stored
// as 0xFFFFFFFF). Column-wise layout keeps the encoder and decoder to
// straight copies.

// AppendBinary appends the index's binary encoding to buf and returns
// the extended buffer.
func (ix *Index) AppendBinary(buf []byte) []byte {
	for _, f := range []*family{&ix.v4, &ix.v6} {
		n := len(f.bits)
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, col := range [][]uint64{f.hi, f.lo} {
			for _, v := range col {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
		buf = append(buf, f.bits...)
		for _, col := range [][]int32{f.parent, f.val} {
			for _, v := range col {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
	}
	return buf
}

// Decode parses an AppendBinary payload, consuming data entirely, and
// verifies the structural invariants (sorted unique keys, canonical
// addresses, well-formed parent links). No snapshot reader calls it
// since v1 became write-only; it is the round-trip check on what
// AppendBinary writes, and goes with it.
func Decode(data []byte) (*Index, error) {
	ix := &Index{v4: family{off: 96}, v6: family{off: 0}}
	for _, fam := range []struct {
		f       *family
		name    string
		maxBits uint8
	}{{&ix.v4, "v4", 32}, {&ix.v6, "v6", 128}} {
		n, used := binary.Uvarint(data)
		if used <= 0 {
			return nil, fmt.Errorf("lpm: %s: truncated entry count", fam.name)
		}
		data = data[used:]
		need := n * (8 + 8 + 1 + 4 + 4)
		if n > 1<<31-1 || uint64(len(data)) < need {
			return nil, fmt.Errorf("lpm: %s: truncated payload (%d entries, %d bytes left)", fam.name, n, len(data))
		}
		f := fam.f
		f.hi = make([]uint64, n)
		f.lo = make([]uint64, n)
		f.bits = make([]uint8, n)
		f.parent = make([]int32, n)
		f.val = make([]int32, n)
		for _, col := range [][]uint64{f.hi, f.lo} {
			for i := range col {
				col[i] = binary.LittleEndian.Uint64(data)
				data = data[8:]
			}
		}
		copy(f.bits, data)
		data = data[n:]
		for _, col := range [][]int32{f.parent, f.val} {
			for i := range col {
				col[i] = int32(binary.LittleEndian.Uint32(data))
				data = data[4:]
			}
		}
		if err := f.validate(fam.name, fam.maxBits); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("lpm: %d trailing bytes after index", len(data))
	}
	return ix, nil
}
