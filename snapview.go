package prefix2org

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/prefix2org/prefix2org/internal/lpm"
)

// A view-backed Dataset serves straight from the bytes of a v2
// snapshot (see serialize_binary_v2.go): the lpm index aliases the
// file's columns, strings alias the blob, and Record/Cluster values
// are materialized lazily, a chunk at a time, on first touch. Opening
// one is O(sections), not O(records).
//
// Mapping lifetime contract: every string and *Record obtained from a
// view-backed Dataset points into the snapshot buffer. The buffer must
// stay readable until Close — which the store's snapshot refcount
// guarantees by only closing after the last in-flight reader releases
// its pin. MaterializeAll does NOT sever that dependency: materialized
// strings still alias the blob.

// snapView holds the parsed (sliced, never decoded) sections of one
// open v2 snapshot.
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

	lv *lpm.View
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

type lazyTables struct {
	chunks  []atomic.Pointer[recordChunk]
	clus    []atomic.Pointer[Cluster]
	matOnce sync.Once
}

func newLazyTables(n, m int) *lazyTables {
	return &lazyTables{
		chunks: make([]atomic.Pointer[recordChunk], (n+recChunkLen-1)>>recChunkShift),
		clus:   make([]atomic.Pointer[Cluster], m),
	}
}

// recordAt returns the i'th record, materializing its chunk on first
// touch. On an eager Dataset it is exactly &d.Records[i].
func (d *Dataset) recordAt(i int) *Record {
	if d.lazy == nil {
		return &d.Records[i]
	}
	ci := i >> recChunkShift
	c := d.lazy.chunks[ci].Load()
	if c == nil {
		c = d.view.fillRecordChunk(ci)
		if !d.lazy.chunks[ci].CompareAndSwap(nil, c) {
			c = d.lazy.chunks[ci].Load() // lost the race; adopt the winner
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

// clusterAt returns the i'th cluster, materializing it on first touch.
func (d *Dataset) clusterAt(i int) *Cluster {
	if d.lazy == nil {
		return d.Clusters[i]
	}
	c := d.lazy.clus[i].Load()
	if c == nil {
		c = d.view.buildCluster(i)
		if !d.lazy.clus[i].CompareAndSwap(nil, c) {
			c = d.lazy.clus[i].Load()
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

// clusterByID is the lazy ClusterByID: a binary search over the sorted
// clusterids table. When several clusters share an ID (which the build
// never produces) the last one wins, matching the byCluster map's
// insertion-order overwrite.
func (v *snapView) clusterByID(d *Dataset, id string) (*Cluster, bool) {
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
	return d.clusterAt(j), true
}

// clusterOfOwner is the lazy ClusterOfOwner body: clean is the
// basic-cleaned owner name, the same key the byOwner map uses.
func (v *snapView) clusterOfOwner(d *Dataset, clean string) (*Cluster, bool) {
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
	return d.clusterAt(j), true
}

// NumRecords reports the record count without forcing materialization;
// on an eager Dataset it is len(d.Records).
func (d *Dataset) NumRecords() int {
	if d.lazy != nil {
		return d.view.rec.n
	}
	return len(d.Records)
}

// NumClusters reports the cluster count without forcing
// materialization.
func (d *Dataset) NumClusters() int {
	if d.lazy != nil {
		return d.view.clu.m
	}
	return len(d.Clusters)
}

// RecordAt returns the i'th record (0 ≤ i < NumRecords); the
// view-backed replacement for indexing d.Records directly. It panics
// on an out-of-range i, like the slice index it replaces.
func (d *Dataset) RecordAt(i int) *Record { return d.recordAt(i) }

// ClusterAt returns the i'th cluster (0 ≤ i < NumClusters).
func (d *Dataset) ClusterAt(i int) *Cluster { return d.clusterAt(i) }

// Lazy reports whether the Dataset is view-backed: Records, Clusters
// and the lookup maps are not populated until MaterializeAll, and
// Close must be called (normally by the store) to release the buffer.
func (d *Dataset) Lazy() bool { return d.lazy != nil }

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

// MaterializeAll populates Records, Clusters and the lookup maps of a
// view-backed Dataset, so code that ranges over the flat slices (the
// v1 writer, diffing, bulk exports) works unchanged. It runs at most
// once; concurrent lazy readers are unaffected (they keep going
// through the chunk tables). The materialized strings still alias the
// snapshot buffer — MaterializeAll does not extend the mapping
// lifetime contract.
func (d *Dataset) MaterializeAll() {
	if d.lazy == nil || d.view == nil {
		return
	}
	d.lazy.matOnce.Do(func() { d.view.materializeInto(d) })
}

func (v *snapView) materializeInto(d *Dataset) {
	n := v.rec.n
	recs := make([]Record, n)
	var custs []string
	if v.rec.nCust > 0 {
		custs = make([]string, v.rec.nCust)
	}
	var dcps []netip.Prefix
	if v.rec.nDCP > 0 {
		dcps = make([]netip.Prefix, v.rec.nDCP)
	}
	var dcts []string
	if v.rec.nDCT > 0 {
		dcts = make([]string, v.rec.nDCT)
	}
	for i := 0; i < n; i++ {
		v.fillRecord(&recs[i], i, custs, dcps, dcts, 0, 0, 0)
	}
	m := v.clu.m
	clus := make([]*Cluster, m)
	for i := range clus {
		clus[i] = d.clusterAt(i) // share the lazily-cached pointers
	}
	d.Records = recs
	d.Clusters = clus
	d.indexClusters()
}

// errMmapUnsupported makes OpenSnapshotFile degrade to a full read on
// platforms without mmap.
var errMmapUnsupported = errors.New("prefix2org: mmap not supported on this platform")

// OpenOptions configures OpenSnapshotFile.
type OpenOptions struct {
	// Mmap maps the file read-only instead of reading it into memory:
	// cold open touches no data pages, and replicas opening the same
	// snapshot share page cache. On platforms without mmap support the
	// option silently degrades to a full read.
	Mmap bool
}

// OpenSnapshotFile opens a snapshot for serving. A v2 binary snapshot
// is opened in place — header validation plus slicing, no per-record
// decode — and the returned Dataset is view-backed (Lazy() == true):
// callers own a Close obligation, normally discharged by the store's
// snapshot refcount. Any other file goes to the eager LoadFile (JSON
// loads, whose result needs no Close; a v1 binary is refused).
func OpenSnapshotFile(ctx context.Context, path string, opts OpenOptions) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Mmap {
		data, closer, err := mmapFile(path)
		if errors.Is(err, errMmapUnsupported) {
			opts.Mmap = false
		} else if err != nil {
			return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
		} else {
			if !hasMagic(data, binaryMagicV2) {
				_ = closer() // not v2 — decode eagerly instead
				return LoadFile(ctx, path)
			}
			d, err := openViewBytes(data, closer)
			if err != nil {
				_ = closer()
				return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
			}
			return d, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
	}
	if !hasMagic(data, binaryMagicV2) {
		return LoadFile(ctx, path)
	}
	d, err := openViewBytes(data, nil)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
	}
	return d, nil
}
