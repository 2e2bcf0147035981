package prefix2org

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"

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
//	             The last entry of an equal-owner run wins; a build
//	             writes none, each owner name being in one cluster.
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

func u32at(col []byte, i int) uint32 { return binary.LittleEndian.Uint32(col[4*i:]) }
func u64at(col []byte, i int) uint64 { return binary.LittleEndian.Uint64(col[8*i:]) }

func putU32at(col []byte, i int, v uint32) { binary.LittleEndian.PutUint32(col[4*i:], v) }

// putPrefixAt writes p as entry i of four parallel prefix columns.
func putPrefixAt(hi, lo, bits, fam []byte, i int, p netip.Prefix) {
	h, l, b, f := splitPrefix(p)
	binary.LittleEndian.PutUint64(hi[8*i:], h)
	binary.LittleEndian.PutUint64(lo[8*i:], l)
	bits[i], fam[i] = b, f
}

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
// Load and SaveFile round-trip it byte for byte. A read Dataset writes
// the bytes it was opened over, sections this version does not know
// included.
func (d *Dataset) SaveBinary(w io.Writer) error {
	defer obs.Time(mCodecSeconds.saveBin)()
	var out []byte
	if d.view != nil {
		out = d.view.buf
	} else {
		var err error
		if out, err = d.encodeV2(); err != nil {
			return err
		}
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("prefix2org: write binary snapshot: %w", err)
	}
	return nil
}

// encodeV2 encodes a built Dataset as a v2 snapshot.
//
// Every section but the strings has a length the record, cluster and
// ragged-list counts fix, and the strings section has one once every
// string is interned. So the writer counts, interns, allocates the file
// once at its final size, and fills each column at its offset — through
// the same carve the reader slices the sections with.
func (d *Dataset) encodeV2() ([]byte, error) {
	stats, err := json.Marshal(d.Stats)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: encode stats: %w", err)
	}

	rc, cc := recCols{n: len(d.Records)}, cluCols{m: len(d.Clusters)}
	for _, c := range d.Clusters {
		cc.nOwn += len(c.OwnerNames)
		cc.nPref += len(c.Prefixes)
	}
	for i := range d.Records {
		r := &d.Records[i]
		rc.nCust += len(r.DelegatedCustomers)
		rc.nDCP += len(r.DCPrefixes)
		rc.nDCT += len(r.DCTypes)
	}
	strs, refs := d.internStrings(2*cc.m + cc.nOwn + 7*rc.n + rc.nCust + rc.nDCT)
	nStr := len(strs.tab)
	var blobLen uint64
	for _, s := range strs.tab {
		blobLen += uint64(len(s))
	}
	if blobLen > 1<<32-1 || nStr > 1<<32-1 {
		return nil, fmt.Errorf("prefix2org: string table too large for v2 snapshot")
	}
	ix := d.idx
	if ix == nil {
		ix = freezeIndex(d.Records)
	}

	// The directory: one section per tag, tags ascending, each at the next
	// 8-aligned offset. make zeroes the padding between them. sec holds
	// one slicer per section, by tag (0 is no section's): what is left in
	// them at the end says whether each came out at the length the
	// directory states.
	const nSecs = v2SecIndex // the highest tag: sections are 1..nSecs
	var sec [nSecs + 1]slicer
	size := [nSecs + 1]int{
		v2SecStats:      len(stats),
		v2SecStrings:    8 + 8*nStr + int(blobLen),
		v2SecRecords:    rc.sectionLen(),
		v2SecClusters:   cc.sectionLen(),
		v2SecOwners:     8 + 8*cc.nOwn,
		v2SecClusterIDs: 8 + 4*cc.m,
		v2SecIndex:      ix.ColumnsLen(),
	}
	var secOff [nSecs + 1]int
	total := 16 + 24*nSecs // divisible by 8, so the first section is aligned
	for tag := 1; tag <= nSecs; tag++ {
		secOff[tag] = (total + 7) &^ 7
		total = secOff[tag] + size[tag]
	}
	out := make([]byte, total)
	copy(out, binaryMagicV2[:])
	putU32at(out[8:], 0, nSecs)
	for tag := 1; tag <= nSecs; tag++ {
		dir := out[16+24*(tag-1):]
		putU32at(dir, 0, uint32(tag))
		binary.LittleEndian.PutUint64(dir[8:], uint64(secOff[tag]))
		binary.LittleEndian.PutUint64(dir[16:], uint64(size[tag]))
		end := secOff[tag] + size[tag]
		sec[tag] = slicer{b: out[secOff[tag]:end:end], sec: "section layout"}
	}

	copy(sec[v2SecStats].take(len(stats)), stats)

	// Strings: exact back-to-back packing.
	s := &sec[v2SecStrings]
	hdr, pairs, blob := s.take(8), s.take(8*nStr), s.take(int(blobLen))
	putU32at(hdr, 0, uint32(nStr))
	putU32at(hdr, 1, uint32(blobLen))
	off := 0
	for i, str := range strs.tab {
		putU32at(pairs, 2*i, uint32(off))
		putU32at(pairs, 2*i+1, uint32(len(str)))
		off += copy(blob[off:], str)
	}

	// Clusters, then records: the interning walk again, each ref to its
	// column.
	s = &sec[v2SecClusters]
	hdr = s.take(16)
	putU32at(hdr, 0, uint32(cc.m))
	putU32at(hdr, 1, uint32(cc.nOwn))
	putU32at(hdr, 2, uint32(cc.nPref))
	cc.carve(s)
	if s.err != nil {
		return nil, fmt.Errorf("prefix2org: write binary snapshot: clusters: %w", s.err)
	}
	refs, ownerPairs := cc.fill(d.Clusters, refs)

	s = &sec[v2SecRecords]
	hdr = s.take(16)
	putU32at(hdr, 0, uint32(rc.n))
	putU32at(hdr, 1, uint32(rc.nCust))
	putU32at(hdr, 2, uint32(rc.nDCP))
	putU32at(hdr, 3, uint32(rc.nDCT))
	rc.carve(s)
	if s.err != nil {
		return nil, fmt.Errorf("prefix2org: write binary snapshot: records: %w", s.err)
	}
	refs = rc.fill(d.Records, refs)

	// Owners table, sorted by (owner bytes, cluster index). Equal refs
	// are equal strings, and the total order is unique, so an unstable
	// sort is deterministic here.
	slices.SortFunc(ownerPairs, func(a, b [2]uint32) int {
		if a[0] != b[0] {
			return strings.Compare(strs.tab[a[0]], strs.tab[b[0]])
		}
		return cmp.Compare(a[1], b[1])
	})
	s = &sec[v2SecOwners]
	putU32at(s.take(8), 0, uint32(len(ownerPairs)))
	table := s.take(8 * len(ownerPairs))
	for i, p := range ownerPairs {
		putU32at(table, 2*i, p[0])
		putU32at(table, 2*i+1, p[1])
	}

	// Cluster indices sorted by (cluster ID bytes, index).
	idOrder := make([]uint32, cc.m)
	for i := range idOrder {
		idOrder[i] = uint32(i)
	}
	slices.SortFunc(idOrder, func(a, b uint32) int {
		if c := strings.Compare(d.Clusters[a].ID, d.Clusters[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s = &sec[v2SecClusterIDs]
	putU32at(s.take(8), 0, uint32(cc.m))
	table = s.take(4 * cc.m)
	for i, idx := range idOrder {
		putU32at(table, i, idx)
	}

	// The index appends itself, into the room left for it and no further.
	s = &sec[v2SecIndex]
	indexOff := secOff[v2SecIndex]
	s.take(len(ix.AppendColumns(out[:indexOff:indexOff+len(s.b)])) - indexOff)

	// A section that did not come out at its length in the directory,
	// or a ref left without a column, is a bug in the arithmetic above:
	// fail, write nothing.
	for i := range sec {
		if err := sec[i].done(); err != nil {
			return nil, fmt.Errorf("prefix2org: write binary snapshot: section %d: %w", i, err)
		}
	}
	if len(refs) != 0 {
		return nil, fmt.Errorf("prefix2org: write binary snapshot: %d string refs left without a column", len(refs))
	}
	return out, nil
}

// internStrings interns every string of the dataset, clusters before
// records and member by member in the order below: table ids are handed
// out on first reference, so this walk IS the string table's order — and
// with it every byte of the file. It returns the table and the nRefs
// refs in walk order, which is the order cluCols.fill and recCols.fill
// place them in.
func (d *Dataset) internStrings(nRefs int) (*stringTable, []uint32) {
	// One distinct string to eight refs is what the synthetic worlds
	// have; it is a hint, the map grows past it.
	strs := newStringTable(nRefs / 8)
	refs := make([]uint32, 0, nRefs)
	for _, c := range d.Clusters {
		refs = append(refs, strs.id(c.ID), strs.id(c.BaseName))
		for _, o := range c.OwnerNames {
			refs = append(refs, strs.id(o))
		}
	}
	for i := range d.Records {
		r := &d.Records[i]
		refs = append(refs, strs.id(r.RIR), strs.id(r.DirectOwner), strs.id(r.DOType))
		for _, s := range r.DelegatedCustomers {
			refs = append(refs, strs.id(s))
		}
		for _, s := range r.DCTypes {
			refs = append(refs, strs.id(s))
		}
		refs = append(refs, strs.id(r.BaseName), strs.id(r.RPKICert), strs.id(r.ASNCluster), strs.id(r.FinalCluster))
	}
	return strs, refs
}

// fill writes the clusters into the carved columns, taking their string
// refs off the front of refs in internStrings order. It returns the
// refs that remain and the {owner ref, cluster index} pairs of the
// owners table.
func (cc *cluCols) fill(clusters []*Cluster, refs []uint32) (rest []uint32, ownerPairs [][2]uint32) {
	ownerPairs = make([][2]uint32, 0, cc.nOwn)
	nOwn, nPref := 0, 0
	for i, c := range clusters {
		putU32at(cc.id, i, refs[0])
		putU32at(cc.base, i, refs[1])
		refs = refs[2:]
		putU32at(cc.ownerStart, i, uint32(nOwn))
		for range c.OwnerNames {
			putU32at(cc.ownerRefs, nOwn, refs[0])
			ownerPairs = append(ownerPairs, [2]uint32{refs[0], uint32(i)})
			refs = refs[1:]
			nOwn++
		}
		putU32at(cc.prefStart, i, uint32(nPref))
		for _, p := range c.Prefixes {
			putPrefixAt(cc.prefHi, cc.prefLo, cc.prefBits, cc.prefFam, nPref, p)
			nPref++
		}
	}
	putU32at(cc.ownerStart, cc.m, uint32(nOwn))
	putU32at(cc.prefStart, cc.m, uint32(nPref))
	return refs, ownerPairs
}

// fill writes the records into the carved columns, taking their string
// refs off the front of refs in internStrings order, and returns the
// refs that remain.
func (rc *recCols) fill(records []Record, refs []uint32) []uint32 {
	nCust, nDCP, nDCT := 0, 0, 0
	for i := range records {
		r := &records[i]
		putPrefixAt(rc.prefHi, rc.prefLo, rc.prefBits, rc.prefFam, i, r.Prefix)
		putPrefixAt(rc.doHi, rc.doLo, rc.doBits, rc.doFam, i, r.DOPrefix)
		putU32at(rc.rir, i, refs[0])
		putU32at(rc.downer, i, refs[1])
		putU32at(rc.dotype, i, refs[2])
		refs = refs[3:]
		putU32at(rc.custStart, i, uint32(nCust))
		for range r.DelegatedCustomers {
			putU32at(rc.custRefs, nCust, refs[0])
			refs = refs[1:]
			nCust++
		}
		putU32at(rc.dcpStart, i, uint32(nDCP))
		for _, p := range r.DCPrefixes {
			putPrefixAt(rc.dcpHi, rc.dcpLo, rc.dcpBits, rc.dcpFam, nDCP, p)
			nDCP++
		}
		putU32at(rc.dctStart, i, uint32(nDCT))
		for range r.DCTypes {
			putU32at(rc.dctRefs, nDCT, refs[0])
			refs = refs[1:]
			nDCT++
		}
		putU32at(rc.base, i, refs[0])
		putU32at(rc.cert, i, refs[1])
		putU32at(rc.asncl, i, refs[2])
		putU32at(rc.fincl, i, refs[3])
		refs = refs[4:]
		putU32at(rc.origin, i, r.OriginASN)
	}
	putU32at(rc.custStart, rc.n, uint32(nCust))
	putU32at(rc.dcpStart, rc.n, uint32(nDCP))
	putU32at(rc.dctStart, rc.n, uint32(nDCT))
	return refs
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

// carve slices the section's columns, after its 16-byte header, off s:
// the one place the records layout is written down. parseRecCols
// validates what it is handed; SaveBinary fills it.
func (rc *recCols) carve(s *slicer) {
	n, P := rc.n, rc.nDCP
	rc.prefHi, rc.prefLo = s.take(8*n), s.take(8*n)
	rc.doHi, rc.doLo = s.take(8*n), s.take(8*n)
	rc.dcpHi, rc.dcpLo = s.take(8*P), s.take(8*P)
	rc.rir, rc.downer, rc.dotype = s.take(4*n), s.take(4*n), s.take(4*n)
	rc.base, rc.cert, rc.asncl, rc.fincl = s.take(4*n), s.take(4*n), s.take(4*n), s.take(4*n)
	rc.origin = s.take(4 * n)
	rc.custStart, rc.dcpStart, rc.dctStart = s.take(4*(n+1)), s.take(4*(n+1)), s.take(4*(n+1))
	rc.custRefs = s.take(4 * rc.nCust)
	rc.dctRefs = s.take(4 * rc.nDCT)
	rc.prefBits, rc.prefFam = s.take(n), s.take(n)
	rc.doBits, rc.doFam = s.take(n), s.take(n)
	rc.dcpBits, rc.dcpFam = s.take(P), s.take(P)
}

// sectionLen is the byte length of the section carve slices: header,
// 4 u64 + 8 u32 + 4 byte columns of n, 3 start columns of n+1, 2 u64 +
// 2 byte columns of nDCP, and the two ragged ref columns.
func (rc *recCols) sectionLen() int {
	return 16 + (4*8+8*4+4)*rc.n + 3*4*(rc.n+1) + (2*8+2)*rc.nDCP + 4*rc.nCust + 4*rc.nDCT
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
	rc.carve(s)
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
	// A record's customers, their prefixes and their types are one
	// chain, read by position: equal counts record by record are equal
	// start columns.
	if !bytes.Equal(rc.custStart, rc.dcpStart) || !bytes.Equal(rc.custStart, rc.dctStart) {
		for i := 0; i < n; i++ {
			c, p, t := u32at(rc.custStart, i+1)-u32at(rc.custStart, i), u32at(rc.dcpStart, i+1)-u32at(rc.dcpStart, i), u32at(rc.dctStart, i+1)-u32at(rc.dctStart, i)
			if c != p || c != t {
				return rc, fmt.Errorf("prefix2org: binary snapshot: records: record %d has %d Delegated Customers, %d DC prefixes and %d DC types", i, c, p, t)
			}
		}
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

// carve slices the section's columns, after its 16-byte header, off s:
// the clusters layout, written down once for parseCluCols and
// SaveBinary alike.
func (cc *cluCols) carve(s *slicer) {
	m, P := cc.m, cc.nPref
	cc.prefHi, cc.prefLo = s.take(8*P), s.take(8*P)
	cc.id, cc.base = s.take(4*m), s.take(4*m)
	cc.ownerStart, cc.prefStart = s.take(4*(m+1)), s.take(4*(m+1))
	cc.ownerRefs = s.take(4 * cc.nOwn)
	cc.prefBits, cc.prefFam = s.take(P), s.take(P)
}

// sectionLen is the byte length of the section carve slices.
func (cc *cluCols) sectionLen() int {
	return 16 + 2*4*cc.m + 2*4*(cc.m+1) + (2*8+2)*cc.nPref + 4*cc.nOwn
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
	cc.carve(s)
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
// lookup tables, index↔records agreement), then returns a read Dataset
// that serves straight from data with lazy Record/Cluster
// materialization.
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
	// Cross-check the index against the record prefix columns,
	// numerically, so the check allocates nothing.
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

	v.chunks = make([]atomic.Pointer[recordChunk], (v.rec.n+recChunkLen-1)>>recChunkShift)
	v.clus = make([]atomic.Pointer[Cluster], v.clu.m)
	d := &Dataset{view: v}
	if err := json.Unmarshal(secs[v2SecStats], &d.Stats); err != nil {
		return nil, fmt.Errorf("prefix2org: binary snapshot: stats: %w", err)
	}
	d.idx = lv
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
