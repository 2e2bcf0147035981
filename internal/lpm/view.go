package lpm

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Column layout of one encoded index (AppendColumns/ViewColumns), the
// v2-snapshot companion to codec.go's uvarint framing: per family, v4
// then v6,
//
//	u32 entry count, u32 zero padding,
//	hi  (8n bytes, little-endian uint64)
//	lo  (8n)
//	parent (4n, little-endian uint32; -1 stored as 0xFFFFFFFF)
//	val    (4n)
//	bits   (n)
//	zero padding to the next 8-byte boundary
//
// Every column width is derived from the count up front, so a reader
// validates the total length once and then slices — no per-entry
// decode. When the encoded block starts 8-byte aligned (the snapshot
// writer guarantees this), a little-endian host aliases the columns
// in place; other hosts or unaligned buffers fall back to a copying
// decode with identical semantics.

// colBlockLen is the unpadded byte length of one family's columns.
func colBlockLen(n int) int { return n * (8 + 8 + 4 + 4 + 1) }

// ColumnsLen returns the number of bytes AppendColumns appends, so a
// writer can leave exactly that much room.
func (ix *Index) ColumnsLen() int {
	n := 0
	for _, f := range []*family{&ix.v4, &ix.v6} {
		n += 8 + (colBlockLen(len(f.bits))+7)&^7
	}
	return n
}

// AppendColumns appends the fixed-width column encoding of the index
// to buf and returns the extended buffer. The output is deterministic
// for a given index and independent of host byte order.
func (ix *Index) AppendColumns(buf []byte) []byte {
	start := len(buf)
	for _, f := range []*family{&ix.v4, &ix.v6} {
		n := len(f.bits)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		for _, col := range [][]uint64{f.hi, f.lo} {
			for _, v := range col {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
		for _, col := range [][]int32{f.parent, f.val} {
			for _, v := range col {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
		buf = append(buf, f.bits...)
		for (len(buf)-start)%8 != 0 {
			buf = append(buf, 0)
		}
	}
	return buf
}

// hostLittleEndian reports whether the running machine stores
// integers little-endian, the precondition for aliasing the on-disk
// columns in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignedTo(b []byte, align uintptr) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%align == 0
}

func aliasUint64(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

func aliasInt32(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// ViewColumns opens an AppendColumns payload in place: it validates
// the framing and the structural invariants (sorted unique keys,
// canonical addresses, well-formed parent links — the same checks
// Decode runs) and returns an Index whose columns alias data, so
// opening a snapshot is slicing plus an O(n) numeric validation scan,
// with zero per-entry work. It never copies column bytes on an aligned
// little-endian host; elsewhere it transparently decodes into heap
// columns. data must be entirely consumed; a truncated, oversized, or
// corrupt payload returns an error, never a panic.
//
// Lifetime contract: data must stay readable (not munmapped, not
// recycled) for as long as the returned Index — or any Match handle
// obtained from it — is in use.
func ViewColumns(data []byte) (*Index, error) {
	v := &Index{v4: family{off: 96}, v6: family{off: 0}}
	rest := data
	for _, fam := range []struct {
		f       *family
		name    string
		maxBits uint8
	}{{&v.v4, "v4", 32}, {&v.v6, "v6", 128}} {
		if len(rest) < 8 {
			return nil, fmt.Errorf("lpm: %s: truncated column header", fam.name)
		}
		n64 := uint64(binary.LittleEndian.Uint32(rest))
		if pad := binary.LittleEndian.Uint32(rest[4:]); pad != 0 {
			return nil, fmt.Errorf("lpm: %s: nonzero header padding", fam.name)
		}
		rest = rest[8:]
		if n64 > 1<<31-1 {
			return nil, fmt.Errorf("lpm: %s: entry count %d out of range", fam.name, n64)
		}
		n := int(n64)
		blockLen := colBlockLen(n)
		padded := (blockLen + 7) &^ 7
		if len(rest) < padded {
			return nil, fmt.Errorf("lpm: %s: truncated columns (%d entries, %d bytes left)", fam.name, n, len(rest))
		}
		block := rest[:blockLen]
		for _, b := range rest[blockLen:padded] {
			if b != 0 {
				return nil, fmt.Errorf("lpm: %s: nonzero column padding", fam.name)
			}
		}
		hiB := block[0 : 8*n : 8*n]
		loB := block[8*n : 16*n : 16*n]
		parB := block[16*n : 20*n : 20*n]
		valB := block[20*n : 24*n : 24*n]
		f := fam.f
		if hostLittleEndian && alignedTo(hiB, 8) && alignedTo(loB, 8) && alignedTo(parB, 4) && alignedTo(valB, 4) {
			f.hi = aliasUint64(hiB, n)
			f.lo = aliasUint64(loB, n)
			f.parent = aliasInt32(parB, n)
			f.val = aliasInt32(valB, n)
		} else {
			// Copying fallback: big-endian hosts or a buffer the caller
			// failed to align. Same validated result, heap-backed.
			f.hi = make([]uint64, n)
			f.lo = make([]uint64, n)
			f.parent = make([]int32, n)
			f.val = make([]int32, n)
			for i := 0; i < n; i++ {
				f.hi[i] = binary.LittleEndian.Uint64(hiB[8*i:])
				f.lo[i] = binary.LittleEndian.Uint64(loB[8*i:])
				f.parent[i] = int32(binary.LittleEndian.Uint32(parB[4*i:]))
				f.val[i] = int32(binary.LittleEndian.Uint32(valB[4*i:]))
			}
		}
		f.bits = block[24*n : 25*n : 25*n]
		if err := f.validate(fam.name, fam.maxBits); err != nil {
			return nil, err
		}
		rest = rest[padded:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lpm: %d trailing bytes after columns", len(rest))
	}
	return v, nil
}
