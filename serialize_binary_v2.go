package prefix2org

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"

	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// P2OSNAP format version 2: the file IS the index. Every section is a
// fixed-width, offset-based layout, so opening a snapshot is a header
// validation plus slicing — no per-record or per-string decode. The
// opened Dataset serves straight from the file bytes (an mmap or a
// fully-read buffer) and materializes Records/Clusters lazily, in
// chunks, on first touch (see snapview.go).
//
// File layout (all integers little-endian):
//
//	magic    8  bytes  'P','2','O','S','N','A','P',2
//	count    u32       number of directory entries
//	zero     u32       reserved, must be 0
//	directory: count × { tag u32, zero u32, off u64, len u64 }
//	sections, each starting at an 8-byte-aligned offset
//
// Directory entries carry strictly increasing tags. Section i must
// start at align8(end of section i-1) — the first at the end of the
// directory, which is itself 8-aligned — and the padding gap bytes
// must be zero. The last section ends exactly at the end of the file.
// Readers skip entries with unknown tags, so later versions can add
// sections without breaking older readers.
//
// Section payloads (see the parse functions for the precise column
// order; writers and readers in this file are kept side by side):
//
//	stats      — the Stats struct as a JSON blob (field-addition safe).
//	strings    — u32 count, u32 blob length, count × {u32 off, u32 len},
//	             then the blob. Entries are packed back to back in
//	             table order (off₀ = 0, offᵢ = offᵢ₋₁ + lenᵢ₋₁, last
//	             entry ends the blob) and entry 0 is always "".
//	records    — u32 header [n, C, P, T] (records, total delegated
//	             customers, total DC prefixes, total DC types), then
//	             flat columns: prefix/DO-prefix hi/lo (u64), DC-prefix
//	             hi/lo (u64), string-ref and ASN columns (u32),
//	             prefix-sum start columns (u32, n+1 entries), variable
//	             refs (u32), then the bits/family byte columns.
//	clusters   — u32 header [m, O, P, 0], then the same column style.
//	owners     — u32 count k, u32 zero, k × {u32 owner ref,
//	             u32 cluster index}, sorted by (owner bytes, index):
//	             the binary-search table behind lazy ClusterOfOwner.
//	             The last entry of an equal-owner run wins, matching
//	             the byOwner map's insertion-order overwrite.
//	clusterids — u32 count (must equal m), u32 zero, m × u32 cluster
//	             index sorted by (cluster ID bytes, index): the table
//	             behind lazy ClusterByID.
//	index      — the frozen lpm index in AppendColumns form, aliased
//	             in place by lpm.ViewColumns.
//
// A prefix is stored as four columns: hi/lo are the big-endian halves
// of the 16-byte address (IPv4 in its ::ffff:a.b.c.d v4-mapped form),
// bits is the family-native prefix length, and fam is 0 (invalid — all
// other fields must be zero), 1 (IPv4) or 2 (IPv6). Host bits must be
// zero; openViewBytes rejects anything else.
var binaryMagicV2 = [8]byte{'P', '2', 'O', 'S', 'N', 'A', 'P', 2}

const (
	v2SecStats      = 1
	v2SecStrings    = 2
	v2SecRecords    = 3
	v2SecClusters   = 4
	v2SecOwners     = 5
	v2SecClusterIDs = 6
	v2SecIndex      = 7
)

const (
	famInvalid = 0
	famV4      = 1
	famV6      = 2
)

var mCodecOpenBin = obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "open", "format", "binary"), obs.DefBuckets)

// hasMagic reports whether data starts with the given 8-byte magic.
func hasMagic(data []byte, magic [8]byte) bool {
	return len(data) >= len(magic) && [8]byte(data[:8]) == magic
}

// splitPrefix decomposes p into its v2 column form.
func splitPrefix(p netip.Prefix) (hi, lo uint64, bits, fam uint8) {
	if !p.IsValid() {
		return 0, 0, 0, famInvalid
	}
	b := p.Addr().As16()
	hi = binary.BigEndian.Uint64(b[:8])
	lo = binary.BigEndian.Uint64(b[8:])
	bits = uint8(p.Bits())
	fam = famV6
	if p.Addr().Is4() {
		fam = famV4
	}
	return hi, lo, bits, fam
}

// joinPrefix is splitPrefix's inverse. It assumes the columns passed
// checkV2Prefix.
func joinPrefix(hi, lo uint64, bits, fam uint8) netip.Prefix {
	if fam == famInvalid {
		return netip.Prefix{}
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	a := netip.AddrFrom16(b)
	if fam == famV4 {
		a = a.Unmap()
	}
	return netip.PrefixFrom(a, int(bits))
}

// checkV2Prefix validates one prefix's columns: a known family, an
// in-range length, the v4-mapped form for IPv4, and no host bits.
func checkV2Prefix(sec string, hi, lo uint64, bits, fam uint8) error {
	switch fam {
	case famInvalid:
		if hi|lo != 0 || bits != 0 {
			return fmt.Errorf("prefix2org: binary snapshot: %s: invalid prefix with nonzero fields", sec)
		}
	case famV4:
		if bits > 32 {
			return fmt.Errorf("prefix2org: binary snapshot: %s: IPv4 prefix length %d out of range", sec, bits)
		}
		if hi != 0 || lo>>32 != 0xffff {
			return fmt.Errorf("prefix2org: binary snapshot: %s: IPv4 prefix not in v4-mapped form", sec)
		}
		var mask uint32
		if bits > 0 {
			mask = ^uint32(0) << (32 - uint(bits))
		}
		if uint32(lo)&^mask != 0 {
			return fmt.Errorf("prefix2org: binary snapshot: %s: IPv4 prefix has host bits set", sec)
		}
	case famV6:
		if bits > 128 {
			return fmt.Errorf("prefix2org: binary snapshot: %s: IPv6 prefix length %d out of range", sec, bits)
		}
		maskHi, maskLo := maskHiLo(bits)
		if hi&^maskHi != 0 || lo&^maskLo != 0 {
			return fmt.Errorf("prefix2org: binary snapshot: %s: IPv6 prefix has host bits set", sec)
		}
	default:
		return fmt.Errorf("prefix2org: binary snapshot: %s: bad prefix family %d", sec, fam)
	}
	return nil
}

// maskHiLo returns the 128-bit network mask for a prefix length as two
// big-endian uint64 halves.
func maskHiLo(bits uint8) (hi, lo uint64) {
	b := uint(bits)
	switch {
	case b == 0:
	case b <= 64:
		hi = ^uint64(0) << (64 - b)
	default:
		hi = ^uint64(0)
		lo = ^uint64(0) << (128 - b)
	}
	return hi, lo
}

func appendU32s(buf []byte, vs []uint32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

func appendU64s(buf []byte, vs []uint64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func u32at(col []byte, i int) uint32 { return binary.LittleEndian.Uint32(col[4*i:]) }
func u64at(col []byte, i int) uint64 { return binary.LittleEndian.Uint64(col[8*i:]) }

// id interns s and returns its dense table index (v2 columns store
// fixed-width u32 refs, unlike v1's uvarint ref()).
func (t *stringTable) id(s string) uint32 {
	v, ok := t.ids[s]
	if !ok {
		v = uint64(len(t.tab))
		t.ids[s] = v
		t.tab = append(t.tab, s)
	}
	return uint32(v)
}

// SaveBinary writes the dataset as a version-2 binary snapshot: the
// current format, openable in place by OpenSnapshotFile with no
// per-record decode. The output is deterministic for a given Dataset;
// Load and SaveFile round-trip it byte for byte.
func (d *Dataset) SaveBinary(w io.Writer) error {
	defer obs.Time(mCodecSeconds.saveBin)()
	d.MaterializeAll()
	stats, err := json.Marshal(d.Stats)
	if err != nil {
		return fmt.Errorf("prefix2org: encode stats: %w", err)
	}

	strs := newStringTable()

	// Clusters: interned before records, matching the v1 writer's
	// first-reference order.
	m := len(d.Clusters)
	var (
		cluID         = make([]uint32, m)
		cluBase       = make([]uint32, m)
		cluOwnerStart = make([]uint32, m+1)
		cluPrefStart  = make([]uint32, m+1)
		cluOwnerRefs  []uint32
		cluPH, cluPL  []uint64
		cluPB, cluPF  []uint8
		ownerPairs    [][2]uint32 // {owner ref, cluster index}
	)
	for i, c := range d.Clusters {
		cluID[i] = strs.id(c.ID)
		cluBase[i] = strs.id(c.BaseName)
		for _, o := range c.OwnerNames {
			ref := strs.id(o)
			cluOwnerRefs = append(cluOwnerRefs, ref)
			ownerPairs = append(ownerPairs, [2]uint32{ref, uint32(i)})
		}
		for _, p := range c.Prefixes {
			hi, lo, bits, fam := splitPrefix(p)
			cluPH = append(cluPH, hi)
			cluPL = append(cluPL, lo)
			cluPB = append(cluPB, bits)
			cluPF = append(cluPF, fam)
		}
		cluOwnerStart[i+1] = uint32(len(cluOwnerRefs))
		cluPrefStart[i+1] = uint32(len(cluPH))
	}

	n := len(d.Records)
	var (
		recPH, recPL = make([]uint64, n), make([]uint64, n)
		doH, doL     = make([]uint64, n), make([]uint64, n)
		recPB, recPF = make([]uint8, n), make([]uint8, n)
		doB, doF     = make([]uint8, n), make([]uint8, n)

		rir    = make([]uint32, n)
		downer = make([]uint32, n)
		dotype = make([]uint32, n)
		base   = make([]uint32, n)
		cert   = make([]uint32, n)
		asncl  = make([]uint32, n)
		fincl  = make([]uint32, n)
		origin = make([]uint32, n)

		custStart = make([]uint32, n+1)
		dcpStart  = make([]uint32, n+1)
		dctStart  = make([]uint32, n+1)

		custRefs, dctRefs []uint32
		dcpH, dcpL        []uint64
		dcpB, dcpF        []uint8
	)
	for i := range d.Records {
		r := &d.Records[i]
		recPH[i], recPL[i], recPB[i], recPF[i] = splitPrefix(r.Prefix)
		rir[i] = strs.id(r.RIR)
		downer[i] = strs.id(r.DirectOwner)
		doH[i], doL[i], doB[i], doF[i] = splitPrefix(r.DOPrefix)
		dotype[i] = strs.id(r.DOType)
		for _, s := range r.DelegatedCustomers {
			custRefs = append(custRefs, strs.id(s))
		}
		for _, p := range r.DCPrefixes {
			hi, lo, bits, fam := splitPrefix(p)
			dcpH = append(dcpH, hi)
			dcpL = append(dcpL, lo)
			dcpB = append(dcpB, bits)
			dcpF = append(dcpF, fam)
		}
		for _, s := range r.DCTypes {
			dctRefs = append(dctRefs, strs.id(s))
		}
		base[i] = strs.id(r.BaseName)
		cert[i] = strs.id(r.RPKICert)
		origin[i] = r.OriginASN
		asncl[i] = strs.id(r.ASNCluster)
		fincl[i] = strs.id(r.FinalCluster)
		custStart[i+1] = uint32(len(custRefs))
		dcpStart[i+1] = uint32(len(dcpH))
		dctStart[i+1] = uint32(len(dctRefs))
	}

	// Strings section: exact back-to-back packing.
	var blobLen uint64
	for _, s := range strs.tab {
		blobLen += uint64(len(s))
	}
	if blobLen > 1<<32-1 || len(strs.tab) > 1<<32-1 {
		return fmt.Errorf("prefix2org: string table too large for v2 snapshot")
	}
	strPayload := make([]byte, 0, 8+8*len(strs.tab)+int(blobLen))
	strPayload = binary.LittleEndian.AppendUint32(strPayload, uint32(len(strs.tab)))
	strPayload = binary.LittleEndian.AppendUint32(strPayload, uint32(blobLen))
	off := uint32(0)
	for _, s := range strs.tab {
		strPayload = binary.LittleEndian.AppendUint32(strPayload, off)
		strPayload = binary.LittleEndian.AppendUint32(strPayload, uint32(len(s)))
		off += uint32(len(s))
	}
	for _, s := range strs.tab {
		strPayload = append(strPayload, s...)
	}

	var recPayload []byte
	recPayload = appendU32s(recPayload, []uint32{uint32(n), uint32(len(custRefs)), uint32(len(dcpH)), uint32(len(dctRefs))})
	recPayload = appendU64s(recPayload, recPH)
	recPayload = appendU64s(recPayload, recPL)
	recPayload = appendU64s(recPayload, doH)
	recPayload = appendU64s(recPayload, doL)
	recPayload = appendU64s(recPayload, dcpH)
	recPayload = appendU64s(recPayload, dcpL)
	for _, col := range [][]uint32{rir, downer, dotype, base, cert, asncl, fincl, origin, custStart, dcpStart, dctStart, custRefs, dctRefs} {
		recPayload = appendU32s(recPayload, col)
	}
	for _, col := range [][]uint8{recPB, recPF, doB, doF, dcpB, dcpF} {
		recPayload = append(recPayload, col...)
	}

	var cluPayload []byte
	cluPayload = appendU32s(cluPayload, []uint32{uint32(m), uint32(len(cluOwnerRefs)), uint32(len(cluPH)), 0})
	cluPayload = appendU64s(cluPayload, cluPH)
	cluPayload = appendU64s(cluPayload, cluPL)
	for _, col := range [][]uint32{cluID, cluBase, cluOwnerStart, cluPrefStart, cluOwnerRefs} {
		cluPayload = appendU32s(cluPayload, col)
	}
	cluPayload = append(cluPayload, cluPB...)
	cluPayload = append(cluPayload, cluPF...)

	// Owners table, sorted by (owner bytes, cluster index): the total
	// order is unique, so sort.Slice is deterministic here.
	sort.Slice(ownerPairs, func(a, b int) bool {
		sa, sb := strs.tab[ownerPairs[a][0]], strs.tab[ownerPairs[b][0]]
		if sa != sb {
			return sa < sb
		}
		return ownerPairs[a][1] < ownerPairs[b][1]
	})
	var ownPayload []byte
	ownPayload = appendU32s(ownPayload, []uint32{uint32(len(ownerPairs)), 0})
	for _, p := range ownerPairs {
		ownPayload = appendU32s(ownPayload, p[:])
	}

	idOrder := make([]uint32, m)
	for i := range idOrder {
		idOrder[i] = uint32(i)
	}
	sort.Slice(idOrder, func(a, b int) bool {
		ia, ib := d.Clusters[idOrder[a]].ID, d.Clusters[idOrder[b]].ID
		if ia != ib {
			return ia < ib
		}
		return idOrder[a] < idOrder[b]
	})
	var idPayload []byte
	idPayload = appendU32s(idPayload, []uint32{uint32(m), 0})
	idPayload = appendU32s(idPayload, idOrder)

	ix := d.idx
	if ix == nil {
		items := make([]lpm.Item, n)
		for i := range d.Records {
			items[i] = lpm.Item{Prefix: d.Records[i].Prefix, Val: int32(i)}
		}
		ix = lpm.Freeze(items)
	}
	ixPayload := ix.AppendColumns(nil)

	secs := []struct {
		tag     uint32
		payload []byte
	}{
		{v2SecStats, stats},
		{v2SecStrings, strPayload},
		{v2SecRecords, recPayload},
		{v2SecClusters, cluPayload},
		{v2SecOwners, ownPayload},
		{v2SecClusterIDs, idPayload},
		{v2SecIndex, ixPayload},
	}
	hdrLen := 16 + 24*len(secs) // divisible by 8, so section 0 is aligned
	total := hdrLen
	offs := make([]int, len(secs))
	for i, s := range secs {
		total = (total + 7) &^ 7
		offs[i] = total
		total += len(s.payload)
	}
	out := make([]byte, 0, total)
	out = append(out, binaryMagicV2[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	out = binary.LittleEndian.AppendUint32(out, 0)
	for i, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, s.tag)
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = binary.LittleEndian.AppendUint64(out, uint64(offs[i]))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
	}
	for i, s := range secs {
		for len(out) < offs[i] {
			out = append(out, 0)
		}
		out = append(out, s.payload...)
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("prefix2org: write binary snapshot: %w", err)
	}
	return nil
}

// slicer takes fixed-width sub-slices off a section payload with one
// sticky error, so a column walk reads as a straight-line layout
// description. Every take is bounds-checked; a truncated section can
// never panic.
type slicer struct {
	b   []byte
	sec string
	err error
}

func (s *slicer) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if n < 0 || n > len(s.b) {
		s.err = fmt.Errorf("prefix2org: binary snapshot: %s: truncated (need %d bytes, have %d)", s.sec, n, len(s.b))
		return nil
	}
	b := s.b[:n:n]
	s.b = s.b[n:]
	return b
}

func (s *slicer) done() error {
	if s.err != nil {
		return s.err
	}
	if len(s.b) != 0 {
		return fmt.Errorf("prefix2org: binary snapshot: %s: %d trailing bytes", s.sec, len(s.b))
	}
	return nil
}

// checkRefs validates that every u32 in col is a live string-table
// index.
func checkRefs(col []byte, count, nStr int, what string) error {
	for i := 0; i < count; i++ {
		if int64(u32at(col, i)) >= int64(nStr) {
			return fmt.Errorf("prefix2org: binary snapshot: %s: string ref %d out of range", what, u32at(col, i))
		}
	}
	return nil
}

// checkStarts validates a prefix-sum start column: starts at 0, never
// decreases, ends at total.
func checkStarts(col []byte, n, total int, what string) error {
	if u32at(col, 0) != 0 {
		return fmt.Errorf("prefix2org: binary snapshot: %s: start column does not begin at 0", what)
	}
	prev := uint32(0)
	for i := 1; i <= n; i++ {
		v := u32at(col, i)
		if v < prev {
			return fmt.Errorf("prefix2org: binary snapshot: %s: start column decreases at %d", what, i)
		}
		prev = v
	}
	if prev != uint32(total) {
		return fmt.Errorf("prefix2org: binary snapshot: %s: start column ends at %d, want %d", what, prev, total)
	}
	return nil
}

// checkPrefixCols validates count parallel prefix columns.
func checkPrefixCols(hi, lo, bits, fam []byte, count int, what string) error {
	for i := 0; i < count; i++ {
		if err := checkV2Prefix(what, u64at(hi, i), u64at(lo, i), bits[i], fam[i]); err != nil {
			return err
		}
	}
	return nil
}

// recCols is the records section sliced into its columns; every field
// aliases the snapshot buffer.
type recCols struct {
	n, nCust, nDCP, nDCT int

	prefHi, prefLo, doHi, doLo []byte // 8n each
	dcpHi, dcpLo               []byte // 8·nDCP each

	rir, downer, dotype, base, cert, asncl, fincl, origin []byte // 4n each

	custStart, dcpStart, dctStart []byte // 4(n+1) each
	custRefs                      []byte // 4·nCust
	dctRefs                       []byte // 4·nDCT

	prefBits, prefFam, doBits, doFam []byte // n each
	dcpBits, dcpFam                  []byte // nDCP each
}

func parseRecCols(sec []byte, nStr int) (recCols, error) {
	var rc recCols
	s := &slicer{b: sec, sec: "records"}
	hdr := s.take(16)
	if s.err != nil {
		return rc, s.err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	C := int(binary.LittleEndian.Uint32(hdr[4:]))
	P := int(binary.LittleEndian.Uint32(hdr[8:]))
	T := int(binary.LittleEndian.Uint32(hdr[12:]))
	// Bound every count by the section size before any width math, so
	// a hostile header can neither overflow nor over-allocate.
	if uint64(n) > uint64(len(sec))/8 || uint64(C) > uint64(len(sec))/4 ||
		uint64(P) > uint64(len(sec))/8 || uint64(T) > uint64(len(sec))/4 {
		return rc, fmt.Errorf("prefix2org: binary snapshot: records: counts [%d %d %d %d] exceed section size", n, C, P, T)
	}
	rc.n, rc.nCust, rc.nDCP, rc.nDCT = n, C, P, T
	rc.prefHi, rc.prefLo = s.take(8*n), s.take(8*n)
	rc.doHi, rc.doLo = s.take(8*n), s.take(8*n)
	rc.dcpHi, rc.dcpLo = s.take(8*P), s.take(8*P)
	rc.rir, rc.downer, rc.dotype = s.take(4*n), s.take(4*n), s.take(4*n)
	rc.base, rc.cert, rc.asncl, rc.fincl = s.take(4*n), s.take(4*n), s.take(4*n), s.take(4*n)
	rc.origin = s.take(4 * n)
	rc.custStart, rc.dcpStart, rc.dctStart = s.take(4*(n+1)), s.take(4*(n+1)), s.take(4*(n+1))
	rc.custRefs = s.take(4 * C)
	rc.dctRefs = s.take(4 * T)
	rc.prefBits, rc.prefFam = s.take(n), s.take(n)
	rc.doBits, rc.doFam = s.take(n), s.take(n)
	rc.dcpBits, rc.dcpFam = s.take(P), s.take(P)
	if err := s.done(); err != nil {
		return rc, err
	}
	for _, col := range []struct {
		b    []byte
		what string
	}{
		{rc.rir, "records.RIR"}, {rc.downer, "records.DirectOwner"},
		{rc.dotype, "records.DOType"}, {rc.base, "records.BaseName"},
		{rc.cert, "records.RPKICert"}, {rc.asncl, "records.ASNCluster"},
		{rc.fincl, "records.FinalCluster"},
	} {
		if err := checkRefs(col.b, n, nStr, col.what); err != nil {
			return rc, err
		}
	}
	if err := checkRefs(rc.custRefs, C, nStr, "records.DelegatedCustomers"); err != nil {
		return rc, err
	}
	if err := checkRefs(rc.dctRefs, T, nStr, "records.DCTypes"); err != nil {
		return rc, err
	}
	if err := checkStarts(rc.custStart, n, C, "records.DelegatedCustomers"); err != nil {
		return rc, err
	}
	if err := checkStarts(rc.dcpStart, n, P, "records.DCPrefixes"); err != nil {
		return rc, err
	}
	if err := checkStarts(rc.dctStart, n, T, "records.DCTypes"); err != nil {
		return rc, err
	}
	if err := checkPrefixCols(rc.prefHi, rc.prefLo, rc.prefBits, rc.prefFam, n, "records.Prefix"); err != nil {
		return rc, err
	}
	if err := checkPrefixCols(rc.doHi, rc.doLo, rc.doBits, rc.doFam, n, "records.DOPrefix"); err != nil {
		return rc, err
	}
	if err := checkPrefixCols(rc.dcpHi, rc.dcpLo, rc.dcpBits, rc.dcpFam, P, "records.DCPrefixes"); err != nil {
		return rc, err
	}
	return rc, nil
}

// cluCols is the clusters section sliced into its columns.
type cluCols struct {
	m, nOwn, nPref int

	prefHi, prefLo        []byte // 8·nPref each
	id, base              []byte // 4m each
	ownerStart, prefStart []byte // 4(m+1) each
	ownerRefs             []byte // 4·nOwn
	prefBits, prefFam     []byte // nPref each
}

func parseCluCols(sec []byte, nStr int) (cluCols, error) {
	var cc cluCols
	s := &slicer{b: sec, sec: "clusters"}
	hdr := s.take(16)
	if s.err != nil {
		return cc, s.err
	}
	m := int(binary.LittleEndian.Uint32(hdr))
	O := int(binary.LittleEndian.Uint32(hdr[4:]))
	P := int(binary.LittleEndian.Uint32(hdr[8:]))
	if z := binary.LittleEndian.Uint32(hdr[12:]); z != 0 {
		return cc, fmt.Errorf("prefix2org: binary snapshot: clusters: nonzero header padding")
	}
	if uint64(m) > uint64(len(sec))/8 || uint64(O) > uint64(len(sec))/4 || uint64(P) > uint64(len(sec))/8 {
		return cc, fmt.Errorf("prefix2org: binary snapshot: clusters: counts [%d %d %d] exceed section size", m, O, P)
	}
	cc.m, cc.nOwn, cc.nPref = m, O, P
	cc.prefHi, cc.prefLo = s.take(8*P), s.take(8*P)
	cc.id, cc.base = s.take(4*m), s.take(4*m)
	cc.ownerStart, cc.prefStart = s.take(4*(m+1)), s.take(4*(m+1))
	cc.ownerRefs = s.take(4 * O)
	cc.prefBits, cc.prefFam = s.take(P), s.take(P)
	if err := s.done(); err != nil {
		return cc, err
	}
	if err := checkRefs(cc.id, m, nStr, "clusters.ID"); err != nil {
		return cc, err
	}
	if err := checkRefs(cc.base, m, nStr, "clusters.BaseName"); err != nil {
		return cc, err
	}
	if err := checkRefs(cc.ownerRefs, O, nStr, "clusters.OwnerNames"); err != nil {
		return cc, err
	}
	if err := checkStarts(cc.ownerStart, m, O, "clusters.OwnerNames"); err != nil {
		return cc, err
	}
	if err := checkStarts(cc.prefStart, m, P, "clusters.Prefixes"); err != nil {
		return cc, err
	}
	if err := checkPrefixCols(cc.prefHi, cc.prefLo, cc.prefBits, cc.prefFam, P, "clusters.Prefixes"); err != nil {
		return cc, err
	}
	return cc, nil
}

// parseStringsV2 validates the strings section: exact back-to-back
// packing over the blob, entry 0 empty.
func parseStringsV2(sec []byte) (nStr int, pairs, blob []byte, err error) {
	s := &slicer{b: sec, sec: "strings"}
	hdr := s.take(8)
	if s.err != nil {
		return 0, nil, nil, s.err
	}
	cnt := int(binary.LittleEndian.Uint32(hdr))
	blobLen := int(binary.LittleEndian.Uint32(hdr[4:]))
	if uint64(cnt) > uint64(len(sec))/8 {
		return 0, nil, nil, fmt.Errorf("prefix2org: binary snapshot: strings: count %d exceeds section size", cnt)
	}
	pairs = s.take(8 * cnt)
	blob = s.take(blobLen)
	if err := s.done(); err != nil {
		return 0, nil, nil, err
	}
	if cnt == 0 {
		return 0, nil, nil, fmt.Errorf("prefix2org: binary snapshot: strings: empty table")
	}
	off := uint64(0)
	for i := 0; i < cnt; i++ {
		o, l := u32at(pairs, 2*i), u32at(pairs, 2*i+1)
		if uint64(o) != off {
			return 0, nil, nil, fmt.Errorf("prefix2org: binary snapshot: strings: entry %d not packed (offset %d, want %d)", i, o, off)
		}
		off += uint64(l)
	}
	if off != uint64(blobLen) {
		return 0, nil, nil, fmt.Errorf("prefix2org: binary snapshot: strings: entries end at %d, blob is %d bytes", off, blobLen)
	}
	if u32at(pairs, 1) != 0 {
		return 0, nil, nil, fmt.Errorf("prefix2org: binary snapshot: strings: entry 0 is not empty")
	}
	return cnt, pairs, blob, nil
}

// parseDirectoryV2 walks the v2 header and directory and returns the
// section payloads indexed by tag (tags 1..7; unknown higher tags are
// skipped for forward compatibility). It enforces the full framing
// contract: strictly increasing tags, 8-aligned offsets with zero
// padding between sections, and no trailing bytes.
func parseDirectoryV2(data []byte) (secs [8][]byte, seen [8]bool, err error) {
	fail := func(format string, args ...any) ([8][]byte, [8]bool, error) {
		return secs, seen, fmt.Errorf("prefix2org: binary snapshot: "+format, args...)
	}
	if !hasMagic(data, binaryMagicV2) || len(data) < 16 {
		return fail("not a v2 snapshot")
	}
	cnt := int(binary.LittleEndian.Uint32(data[8:]))
	if binary.LittleEndian.Uint32(data[12:]) != 0 {
		return fail("nonzero header padding")
	}
	if cnt == 0 || cnt > 1024 {
		return fail("directory count %d out of range", cnt)
	}
	hdrLen := 16 + 24*cnt
	if hdrLen > len(data) {
		return fail("truncated directory (%d entries, %d bytes)", cnt, len(data))
	}
	prevTag := uint32(0)
	prevEnd := hdrLen
	for i := 0; i < cnt; i++ {
		e := data[16+24*i:]
		tag := binary.LittleEndian.Uint32(e)
		if binary.LittleEndian.Uint32(e[4:]) != 0 {
			return fail("directory entry %d: nonzero padding", i)
		}
		off64 := binary.LittleEndian.Uint64(e[8:])
		ln64 := binary.LittleEndian.Uint64(e[16:])
		if tag <= prevTag { // prevTag starts at 0, so this also rejects tag 0
			return fail("directory tags not strictly increasing (%d after %d)", tag, prevTag)
		}
		want := (prevEnd + 7) &^ 7
		if want > len(data) {
			return fail("section %d: offset past end of file", tag)
		}
		if off64 != uint64(want) {
			return fail("section %d: offset %d, want %d", tag, off64, want)
		}
		for _, b := range data[prevEnd:want] {
			if b != 0 {
				return fail("section %d: nonzero padding before section", tag)
			}
		}
		if ln64 > uint64(len(data)-want) {
			return fail("section %d: length %d exceeds %d remaining bytes", tag, ln64, len(data)-want)
		}
		end := want + int(ln64)
		if tag < uint32(len(secs)) {
			secs[tag] = data[want:end:end]
			seen[tag] = true
		}
		prevTag, prevEnd = tag, end
	}
	if prevEnd != len(data) {
		return fail("%d trailing bytes after last section", len(data)-prevEnd)
	}
	return secs, seen, nil
}

// openViewBytes opens a v2 snapshot in place over data: it validates
// the directory and every section's framing and invariants (string
// packing, ref ranges, prefix-sum columns, canonical prefixes, sorted
// lookup tables, index↔records agreement), then returns a Dataset that
// serves straight from data with lazy Record/Cluster materialization.
// No per-record or per-string decode happens here. closeFn, if
// non-nil, is invoked by Dataset.Close to release the buffer.
func openViewBytes(data []byte, closeFn func() error) (*Dataset, error) {
	defer obs.Time(mCodecOpenBin)()
	secs, seen, err := parseDirectoryV2(data)
	if err != nil {
		return nil, err
	}
	for _, tag := range []int{v2SecStats, v2SecStrings, v2SecRecords, v2SecClusters, v2SecOwners, v2SecClusterIDs, v2SecIndex} {
		if !seen[tag] {
			return nil, fmt.Errorf("prefix2org: binary snapshot: missing section %d", tag)
		}
	}
	v := &snapView{buf: data, closeFn: closeFn}
	if v.nStr, v.strPairs, v.blob, err = parseStringsV2(secs[v2SecStrings]); err != nil {
		return nil, err
	}
	if v.rec, err = parseRecCols(secs[v2SecRecords], v.nStr); err != nil {
		return nil, err
	}
	if v.clu, err = parseCluCols(secs[v2SecClusters], v.nStr); err != nil {
		return nil, err
	}
	if err = v.parseOwners(secs[v2SecOwners]); err != nil {
		return nil, err
	}
	if err = v.parseClusterIDs(secs[v2SecClusterIDs]); err != nil {
		return nil, err
	}
	lv, err := lpm.ViewColumns(secs[v2SecIndex])
	if err != nil {
		return nil, fmt.Errorf("prefix2org: binary snapshot: %w", err)
	}
	v.lv = lv
	// Cross-check the index against the record prefix columns — the
	// same invariant v1 enforces, done numerically here so the check
	// allocates nothing.
	if lv.Len() > v.rec.n {
		return nil, fmt.Errorf("prefix2org: binary snapshot: index has %d entries for %d records", lv.Len(), v.rec.n)
	}
	bad := false
	lv.Walk(func(p netip.Prefix, val int32) bool {
		if val < 0 || int(val) >= v.rec.n {
			bad = true
			return false
		}
		hi, lo, bits, fam := splitPrefix(p)
		i := int(val)
		if u64at(v.rec.prefHi, i) != hi || u64at(v.rec.prefLo, i) != lo ||
			v.rec.prefBits[i] != bits || v.rec.prefFam[i] != fam {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return nil, fmt.Errorf("prefix2org: binary snapshot: index does not match records")
	}

	d := &Dataset{view: v, lazy: newLazyTables(v.rec.n, v.clu.m)}
	if err := json.Unmarshal(secs[v2SecStats], &d.Stats); err != nil {
		return nil, fmt.Errorf("prefix2org: binary snapshot: stats: %w", err)
	}
	d.idx = &lv.Index
	return d, nil
}

// parseOwners validates the sorted (owner ref, cluster index) table.
func (v *snapView) parseOwners(sec []byte) error {
	s := &slicer{b: sec, sec: "owners"}
	hdr := s.take(8)
	if s.err != nil {
		return s.err
	}
	k := int(binary.LittleEndian.Uint32(hdr))
	if binary.LittleEndian.Uint32(hdr[4:]) != 0 {
		return fmt.Errorf("prefix2org: binary snapshot: owners: nonzero header padding")
	}
	if uint64(k) > uint64(len(sec))/8 {
		return fmt.Errorf("prefix2org: binary snapshot: owners: count %d exceeds section size", k)
	}
	pairs := s.take(8 * k)
	if err := s.done(); err != nil {
		return err
	}
	prevIdx := -1
	var prevOwner []byte
	for i := 0; i < k; i++ {
		ref := u32at(pairs, 2*i)
		idx := u32at(pairs, 2*i+1)
		if int64(ref) >= int64(v.nStr) {
			return fmt.Errorf("prefix2org: binary snapshot: owners: string ref %d out of range", ref)
		}
		if int64(idx) >= int64(v.clu.m) {
			return fmt.Errorf("prefix2org: binary snapshot: owners: cluster index %d out of range", idx)
		}
		owner := v.strBytes(ref)
		if i > 0 {
			switch c := bytes.Compare(prevOwner, owner); {
			case c > 0:
				return fmt.Errorf("prefix2org: binary snapshot: owners: table not sorted at %d", i)
			case c == 0 && int(idx) <= prevIdx:
				return fmt.Errorf("prefix2org: binary snapshot: owners: duplicate entry at %d", i)
			}
		}
		prevOwner, prevIdx = owner, int(idx)
	}
	v.owners, v.nOwners = pairs, k
	return nil
}

// parseClusterIDs validates the cluster-index permutation sorted by
// cluster ID.
func (v *snapView) parseClusterIDs(sec []byte) error {
	s := &slicer{b: sec, sec: "clusterids"}
	hdr := s.take(8)
	if s.err != nil {
		return s.err
	}
	m := int(binary.LittleEndian.Uint32(hdr))
	if binary.LittleEndian.Uint32(hdr[4:]) != 0 {
		return fmt.Errorf("prefix2org: binary snapshot: clusterids: nonzero header padding")
	}
	if m != v.clu.m {
		return fmt.Errorf("prefix2org: binary snapshot: clusterids: %d entries for %d clusters", m, v.clu.m)
	}
	ids := s.take(4 * m)
	if err := s.done(); err != nil {
		return err
	}
	prevIdx := -1
	var prevID []byte
	for i := 0; i < m; i++ {
		idx := u32at(ids, i)
		if int64(idx) >= int64(m) {
			return fmt.Errorf("prefix2org: binary snapshot: clusterids: cluster index %d out of range", idx)
		}
		id := v.strBytes(u32at(v.clu.id, int(idx)))
		if i > 0 {
			switch c := bytes.Compare(prevID, id); {
			case c > 0:
				return fmt.Errorf("prefix2org: binary snapshot: clusterids: table not sorted at %d", i)
			case c == 0 && int(idx) <= prevIdx:
				return fmt.Errorf("prefix2org: binary snapshot: clusterids: duplicate entry at %d", i)
			}
		}
		prevID, prevIdx = id, int(idx)
	}
	v.ids = ids
	return nil
}

// loadBinaryV2 decodes a full v2 snapshot into a classic eager
// Dataset: Load's compatibility path, used when the caller wants heap
// records rather than a view over the input buffer. The input buffer
// stays reachable through the materialized strings and the index
// columns, which alias it.
func loadBinaryV2(data []byte) (*Dataset, error) {
	defer obs.Time(mCodecSeconds.loadBin)()
	d, err := openViewBytes(data, nil)
	if err != nil {
		return nil, err
	}
	d.MaterializeAll()
	d.lazy = nil
	d.view = nil
	return d, nil
}
