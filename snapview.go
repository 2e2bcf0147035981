package prefix2org

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A read Dataset serves straight from the bytes of a v2 snapshot (see
// serialize_binary_v2.go): the lpm index aliases the file's columns,
// strings alias the blob, and Record/Cluster values are materialized
// lazily, a chunk at a time, on first touch, into the view's own
// tables. Opening one is O(sections), not O(records), and nothing ever
// changes its shape: Records and Clusters stay nil.
//
// Mapping lifetime contract: every string and *Record obtained from a
// read Dataset points into the snapshot buffer. The buffer must stay
// readable until Close — which the store's snapshot refcount guarantees
// by only closing after the last in-flight reader releases its pin.

// snapView holds the parsed (sliced, never decoded) sections of one
// open v2 snapshot, and the Records and Clusters materialized from them
// so far.
type snapView struct {
	buf       []byte
	closeFn   func() error
	closeOnce sync.Once
	closeErr  error

	nStr     int
	strPairs []byte // nStr × {u32 off, u32 len}
	blob     []byte

	rec recCols
	clu cluCols

	owners  []byte // nOwners × {u32 owner ref, u32 cluster index}, sorted
	nOwners int
	ids     []byte // clu.m × u32 cluster index, sorted by cluster ID

	chunks []atomic.Pointer[recordChunk]
	clus   []atomic.Pointer[Cluster]
}

// blobString aliases b as a string without copying. The result is
// valid only while the snapshot buffer stays mapped; the string's
// pointer keeps a heap-backed buffer alive, but never an mmap.
func blobString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func (v *snapView) strBytes(ref uint32) []byte {
	off := u32at(v.strPairs, int(2*ref))
	n := u32at(v.strPairs, int(2*ref+1))
	return v.blob[off : off+n : off+n]
}

func (v *snapView) str(ref uint32) string { return blobString(v.strBytes(ref)) }

func (v *snapView) close() error {
	v.closeOnce.Do(func() {
		if v.closeFn != nil {
			v.closeErr = v.closeFn()
		}
	})
	return v.closeErr
}

// cmpBytesString is bytes.Compare of a byte slice against a string with
// zero allocations (the []byte(s) conversion the stdlib would need is
// not free in all positions).

func cmpBytesString(a []byte, s string) int {
	n := len(a)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if a[i] != s[i] {
			if a[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(s):
		return -1
	case len(a) > len(s):
		return 1
	}
	return 0
}

// Records materialize in chunks of 256: one atomic pointer per chunk,
// published with a CompareAndSwap so concurrent first touches do
// duplicate work at worst, never tear a Record. The chunk's variable
// columns (DelegatedCustomers, DCPrefixes, DCTypes) share one backing
// array each, so a cold chunk costs a handful of allocations — and a
// warm RecordAt is one atomic load plus an index, zero allocations.
const (
	recChunkShift = 8
	recChunkLen   = 1 << recChunkShift
)

type recordChunk [recChunkLen]Record

// recordAt returns record i, materializing its chunk on first touch.
func (v *snapView) recordAt(i int) *Record {
	ci := i >> recChunkShift
	c := v.chunks[ci].Load()
	if c == nil {
		c = v.fillRecordChunk(ci)
		if !v.chunks[ci].CompareAndSwap(nil, c) {
			c = v.chunks[ci].Load() // lost the race; adopt the winner
		}
	}
	return &c[i&(recChunkLen-1)]
}

func (v *snapView) fillRecordChunk(ci int) *recordChunk {
	rc := &v.rec
	lo := ci << recChunkShift
	hi := lo + recChunkLen
	if hi > rc.n {
		hi = rc.n
	}
	cs, ce := u32at(rc.custStart, lo), u32at(rc.custStart, hi)
	ps, pe := u32at(rc.dcpStart, lo), u32at(rc.dcpStart, hi)
	ts, te := u32at(rc.dctStart, lo), u32at(rc.dctStart, hi)
	var custs []string
	if ce > cs {
		custs = make([]string, ce-cs)
	}
	var dcps []netip.Prefix
	if pe > ps {
		dcps = make([]netip.Prefix, pe-ps)
	}
	var dcts []string
	if te > ts {
		dcts = make([]string, te-ts)
	}
	ch := new(recordChunk)
	for i := lo; i < hi; i++ {
		v.fillRecord(&ch[i-lo], i, custs, dcps, dcts, cs, ps, ts)
	}
	return ch
}

// fillRecord decodes record i into r. The variable-width fields slice
// into the caller's backing arrays, whose index 0 corresponds to
// custBase/dcpBase/dctBase in the file's flat ref columns.
func (v *snapView) fillRecord(r *Record, i int, custs []string, dcps []netip.Prefix, dcts []string, custBase, dcpBase, dctBase uint32) {
	rc := &v.rec
	r.Prefix = joinPrefix(u64at(rc.prefHi, i), u64at(rc.prefLo, i), rc.prefBits[i], rc.prefFam[i])
	r.RIR = v.str(u32at(rc.rir, i))
	r.DirectOwner = v.str(u32at(rc.downer, i))
	r.DOPrefix = joinPrefix(u64at(rc.doHi, i), u64at(rc.doLo, i), rc.doBits[i], rc.doFam[i])
	r.DOType = v.str(u32at(rc.dotype, i))
	cs, ce := u32at(rc.custStart, i), u32at(rc.custStart, i+1)
	if ce > cs {
		sub := custs[cs-custBase : ce-custBase : ce-custBase]
		for j := range sub {
			sub[j] = v.str(u32at(rc.custRefs, int(cs)+j))
		}
		r.DelegatedCustomers = sub
	}
	ps, pe := u32at(rc.dcpStart, i), u32at(rc.dcpStart, i+1)
	if pe > ps {
		sub := dcps[ps-dcpBase : pe-dcpBase : pe-dcpBase]
		for j := range sub {
			k := int(ps) + j
			sub[j] = joinPrefix(u64at(rc.dcpHi, k), u64at(rc.dcpLo, k), rc.dcpBits[k], rc.dcpFam[k])
		}
		r.DCPrefixes = sub
	}
	ts, te := u32at(rc.dctStart, i), u32at(rc.dctStart, i+1)
	if te > ts {
		sub := dcts[ts-dctBase : te-dctBase : te-dctBase]
		for j := range sub {
			sub[j] = v.str(u32at(rc.dctRefs, int(ts)+j))
		}
		r.DCTypes = sub
	}
	r.BaseName = v.str(u32at(rc.base, i))
	r.RPKICert = v.str(u32at(rc.cert, i))
	r.OriginASN = u32at(rc.origin, i)
	r.ASNCluster = v.str(u32at(rc.asncl, i))
	r.FinalCluster = v.str(u32at(rc.fincl, i))
}

// clusterAt returns cluster i, materializing it on first touch.
func (v *snapView) clusterAt(i int) *Cluster {
	c := v.clus[i].Load()
	if c == nil {
		c = v.buildCluster(i)
		if !v.clus[i].CompareAndSwap(nil, c) {
			c = v.clus[i].Load()
		}
	}
	return c
}

func (v *snapView) buildCluster(i int) *Cluster {
	cc := &v.clu
	c := &Cluster{ID: v.str(u32at(cc.id, i)), BaseName: v.str(u32at(cc.base, i))}
	os_, oe := u32at(cc.ownerStart, i), u32at(cc.ownerStart, i+1)
	if oe > os_ {
		names := make([]string, oe-os_)
		for j := range names {
			names[j] = v.str(u32at(cc.ownerRefs, int(os_)+j))
		}
		c.OwnerNames = names
	}
	ps, pe := u32at(cc.prefStart, i), u32at(cc.prefStart, i+1)
	if pe > ps {
		prefs := make([]netip.Prefix, pe-ps)
		for j := range prefs {
			k := int(ps) + j
			prefs[j] = joinPrefix(u64at(cc.prefHi, k), u64at(cc.prefLo, k), cc.prefBits[k], cc.prefFam[k])
		}
		c.Prefixes = prefs
	}
	return c
}

// clusterByID is a read Dataset's ClusterByID: a binary search over the
// sorted clusterids table. When several clusters share an ID (which the
// build never produces) the last one wins, as on a built Dataset.
func (v *snapView) clusterByID(id string) (*Cluster, bool) {
	m := v.clu.m
	i := sort.Search(m, func(i int) bool {
		return cmpBytesString(v.strBytes(u32at(v.clu.id, int(u32at(v.ids, i)))), id) >= 0
	})
	j := -1
	for ; i < m; i++ {
		ci := int(u32at(v.ids, i))
		if cmpBytesString(v.strBytes(u32at(v.clu.id, ci)), id) != 0 {
			break
		}
		j = ci
	}
	if j < 0 {
		return nil, false
	}
	return v.clusterAt(j), true
}

// clusterOfOwner is a read Dataset's ClusterOfOwner: clean is the
// basic-cleaned owner name, the key a built Dataset's owner table uses.
func (v *snapView) clusterOfOwner(clean string) (*Cluster, bool) {
	k := v.nOwners
	i := sort.Search(k, func(i int) bool {
		return cmpBytesString(v.strBytes(u32at(v.owners, 2*i)), clean) >= 0
	})
	j := -1
	for ; i < k; i++ {
		if cmpBytesString(v.strBytes(u32at(v.owners, 2*i)), clean) != 0 {
			break
		}
		j = int(u32at(v.owners, 2*i+1))
	}
	if j < 0 {
		return nil, false
	}
	return v.clusterAt(j), true
}

// NumRecords reports the record count without materializing any.
func (d *Dataset) NumRecords() int {
	if d.view != nil {
		return d.view.rec.n
	}
	return len(d.Records)
}

// NumClusters reports the cluster count without materializing any.
func (d *Dataset) NumClusters() int {
	if d.view != nil {
		return d.view.clu.m
	}
	return len(d.Clusters)
}

// RecordAt returns the i'th record (0 ≤ i < NumRecords), the one way to
// reach a record by position on both shapes of Dataset: on a built one it
// is exactly &d.Records[i], on a read one it materializes the record's
// chunk on first touch. It panics on an out-of-range i, like a slice
// index.
func (d *Dataset) RecordAt(i int) *Record {
	if d.view == nil {
		return &d.Records[i]
	}
	return d.view.recordAt(i)
}

// ClusterAt returns the i'th cluster (0 ≤ i < NumClusters),
// materializing it on first touch on a read Dataset.
func (d *Dataset) ClusterAt(i int) *Cluster {
	if d.view == nil {
		return d.Clusters[i]
	}
	return d.view.clusterAt(i)
}

// Lazy reports whether the Dataset is a read one — a view over snapshot
// bytes, as Load, LoadFile and OpenSnapshotFile return — rather than a
// built one. A read Dataset materializes records on first touch, keeps
// Records and Clusters nil, and must be closed (normally by the store)
// to release its buffer.
func (d *Dataset) Lazy() bool { return d.view != nil }

// Close releases the snapshot's backing buffer — the munmap for an
// mmap-opened snapshot, a no-op otherwise. It must only be called
// once no strings, Records or Clusters obtained from the Dataset are
// still in use; internal/store's snapshot refcount enforces that for
// the serve path. Close is idempotent.
func (d *Dataset) Close() error {
	if d.view == nil {
		return nil
	}
	return d.view.close()
}

// MaterializeAll materializes every record chunk and cluster of a read
// Dataset into the view's own tables, which concurrent readers share;
// it leaves Records and Clusters nil and does nothing on a built
// Dataset. The materialized strings still alias the snapshot buffer.
func (d *Dataset) MaterializeAll() {
	if d.view == nil {
		return
	}
	for i := 0; i < d.view.rec.n; i += recChunkLen {
		d.view.recordAt(i)
	}
	for i := range d.view.clu.m {
		d.view.clusterAt(i)
	}
}

// errMmapUnsupported makes OpenSnapshotFile degrade to a full read on
// platforms without mmap.
var errMmapUnsupported = errors.New("prefix2org: mmap not supported on this platform")

// OpenOptions configures OpenSnapshotFile.
type OpenOptions struct {
	// Mmap maps a v2 file read-only instead of reading it into memory:
	// cold open touches no data pages, and replicas opening the same
	// snapshot share page cache. A JSON file is read either way. On
	// platforms without mmap support the option silently degrades to a
	// full read.
	Mmap bool
}

// OpenSnapshotFile opens a snapshot file as a read Dataset (Lazy() ==
// true), whose Close obligation the caller owns — normally discharged by
// the store's snapshot refcount. A v2 binary snapshot is opened in place:
// header validation plus slicing, no per-record decode. A JSON snapshot
// is parsed, encoded once with the v2 writer, then opened the same way.
// A v1 binary is refused. With opts.Mmap a v2 file is mapped rather
// than read.
func OpenSnapshotFile(ctx context.Context, path string, opts OpenOptions) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := openFile(path, opts.Mmap)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
	}
	return d, nil
}

func openFile(path string, mmap bool) (*Dataset, error) {
	if mmap {
		data, closer, err := mmapFile(path)
		switch {
		case errors.Is(err, errMmapUnsupported):
		case err != nil:
			return nil, err
		case hasMagic(data, binaryMagicV2):
			d, err := openViewBytes(data, closer)
			if err != nil {
				_ = closer()
			}
			return d, err
		default:
			_ = closer() // only a v2 file is served from its mapping
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if hasMagic(data, binaryMagicV2) {
		return openViewBytes(data, nil)
	}
	return Load(bytes.NewReader(data))
}
