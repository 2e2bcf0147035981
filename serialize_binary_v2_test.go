package prefix2org

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// saveV2 returns the v2 binary snapshot bytes of ds.
func saveV2(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveJSON returns the JSON-lines snapshot bytes of ds.
func saveJSON(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyEquivalent checks a read dataset against the built one it was
// saved from (or any two datasets of one mapping): every method — the
// serve path's accessors, the analysis methods and the writers — must
// answer identically on both shapes.
func lazyEquivalent(t *testing.T, eager, lazy *Dataset) {
	t.Helper()
	if got, want := lazy.NumRecords(), eager.NumRecords(); got != want {
		t.Fatalf("NumRecords = %d, want %d", got, want)
	}
	if got, want := lazy.NumClusters(), eager.NumClusters(); got != want {
		t.Fatalf("NumClusters = %d, want %d", got, want)
	}
	if lazy.Stats != eager.Stats {
		t.Error("stats diverged")
	}
	for i := range eager.NumRecords() {
		if !reflect.DeepEqual(*lazy.RecordAt(i), *eager.RecordAt(i)) {
			t.Fatalf("RecordAt(%d) diverged:\n%+v\n%+v", i, *lazy.RecordAt(i), *eager.RecordAt(i))
		}
	}
	for i := range eager.NumClusters() {
		c := eager.ClusterAt(i)
		if !reflect.DeepEqual(lazy.ClusterAt(i), c) {
			t.Fatalf("ClusterAt(%d) diverged:\n%+v\n%+v", i, lazy.ClusterAt(i), c)
		}
		got, ok := lazy.ClusterByID(c.ID)
		if !ok || got.ID != c.ID {
			t.Fatalf("ClusterByID(%q) diverged", c.ID)
		}
		for _, o := range c.OwnerNames {
			ec, eok := eager.ClusterOfOwner(o)
			lc, lok := lazy.ClusterOfOwner(o)
			if eok != lok || (eok && ec.ID != lc.ID) {
				t.Fatalf("ClusterOfOwner(%q) diverged", o)
			}
		}
	}
	chainA := make([]*Record, 0, 16)
	chainB := make([]*Record, 0, 16)
	for i := range eager.NumRecords() {
		p := eager.RecordAt(i).Prefix
		ra, aok := eager.Lookup(p)
		rb, bok := lazy.Lookup(p)
		if aok != bok || (aok && ra.Prefix != rb.Prefix) {
			t.Fatalf("Lookup(%s) diverged", p)
		}
		ra, aok = eager.LookupAddr(p.Addr())
		rb, bok = lazy.LookupAddr(p.Addr())
		if aok != bok || (aok && ra.Prefix != rb.Prefix) {
			t.Fatalf("LookupAddr(%s) diverged", p.Addr())
		}
		ra, aok = eager.LookupCovering(p)
		rb, bok = lazy.LookupCovering(p)
		if aok != bok || (aok && ra.Prefix != rb.Prefix) {
			t.Fatalf("LookupCovering(%s) diverged", p)
		}
		chainA = eager.CoveringChainInto(p, chainA[:0])
		chainB = lazy.CoveringChainInto(p, chainB[:0])
		if len(chainA) != len(chainB) {
			t.Fatalf("CoveringChainInto(%s): %d links, want %d", p, len(chainB), len(chainA))
		}
		for j := range chainA {
			if chainA[j].Prefix != chainB[j].Prefix {
				t.Fatalf("CoveringChainInto(%s) link %d diverged", p, j)
			}
		}
	}
	// The analysis methods and the writers.
	for _, n := range []int{5, eager.NumClusters() + 1} {
		if got, want := lazy.TopClustersBySpace(n), eager.TopClustersBySpace(n); !reflect.DeepEqual(got, want) {
			t.Errorf("TopClustersBySpace(%d): %d rows diverged from %d", n, len(got), len(want))
		}
	}
	if got, want := lazy.TotalV4Space(), eager.TotalV4Space(); got != want {
		t.Errorf("TotalV4Space = %v, want %v", got, want)
	}
	if got, want := lazy.WhoisNameClusters(), eager.WhoisNameClusters(); !reflect.DeepEqual(got, want) {
		t.Errorf("WhoisNameClusters: %d rows diverged from %d", len(got), len(want))
	}
	if got, want := lazy.AS2OrgClusters(), eager.AS2OrgClusters(); !reflect.DeepEqual(got, want) {
		t.Errorf("AS2OrgClusters: %d rows diverged from %d", len(got), len(want))
	}
	if !bytes.Equal(saveJSON(t, lazy), saveJSON(t, eager)) {
		t.Error("Save output diverged")
	}
	if !bytes.Equal(saveV2(t, lazy), saveV2(t, eager)) {
		t.Error("SaveBinary output diverged")
	}
	// Misses must agree too.
	if _, ok := lazy.Lookup(netip.MustParsePrefix("203.0.113.0/24")); ok {
		t.Error("Lookup hit on an absent prefix")
	}
	if _, ok := lazy.ClusterOfOwner("No Such Organization LLC"); ok {
		t.Error("ClusterOfOwner hit on an absent owner")
	}
	if _, ok := lazy.ClusterByID("no-such-cluster"); ok {
		t.Error("ClusterByID hit on an absent ID")
	}
}

// TestOpenSnapshotFileLazyEquivalence serves a v2 snapshot in place —
// mmap and read-into-memory paths both — and checks every accessor
// against the built dataset it was saved from.
func TestOpenSnapshotFileLazyEquivalence(t *testing.T) {
	_, ds := buildWorldDataset(t)
	path := filepath.Join(t.TempDir(), "world.p2o")
	if err := os.WriteFile(path, saveV2(t, ds), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mmap bool
	}{{"mmap", true}, {"readfile", false}} {
		t.Run(mode.name, func(t *testing.T) {
			lazy, err := OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: mode.mmap})
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			if !lazy.Lazy() {
				t.Fatal("v2 snapshot did not open lazily")
			}
			lazyEquivalent(t, ds, lazy)
		})
	}
}

// TestOpenSnapshotFileFallback: OpenSnapshotFile on a JSON snapshot
// returns the same read shape a v2 file does, in both modes.
func TestOpenSnapshotFileFallback(t *testing.T) {
	_, ds := buildWorldDataset(t)
	path := filepath.Join(t.TempDir(), "world.jsonl")
	if err := os.WriteFile(path, saveJSON(t, ds), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		back, err := OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("OpenSnapshotFile(mmap=%v): %v", mmap, err)
		}
		if !back.Lazy() {
			t.Fatalf("JSON snapshot (mmap=%v) did not open as a view", mmap)
		}
		lazyEquivalent(t, ds, back)
	}
}

// TestV2MaterializeAll: MaterializeAll fills the view's own chunk and
// cluster tables and nothing else — the Dataset keeps its read shape and
// still answers like the built one — and is safe beside concurrent
// readers touching the same chunks first.
func TestV2MaterializeAll(t *testing.T) {
	_, ds := buildWorldDataset(t)
	lazy, err := openViewBytes(saveV2(t, ds), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				lazy.MaterializeAll()
				return
			}
			for i := range lazy.NumRecords() {
				_ = lazy.RecordAt(i).Prefix
			}
		}()
	}
	wg.Wait()
	if !lazy.Lazy() || lazy.Records != nil || lazy.Clusters != nil {
		t.Fatal("MaterializeAll changed the Dataset's shape")
	}
	for i := range lazy.view.chunks {
		if lazy.view.chunks[i].Load() == nil {
			t.Fatalf("record chunk %d not materialized", i)
		}
	}
	for i := range lazy.view.clus {
		if lazy.view.clus[i].Load() == nil {
			t.Fatalf("cluster %d not materialized", i)
		}
	}
	lazyEquivalent(t, ds, lazy)
}

// TestSnapshotCompatRoundTrip is the `make snapshot-compat` invariant:
// every reader — Load, LoadFile, OpenSnapshotFile with and without the
// mapping — returns a read Dataset for a v2 and a JSON snapshot alike,
// and each re-saves exactly the v2 bytes of the built Dataset both were
// exported from. A v2 file carrying a section this version does not
// know re-saves byte for byte, that section included.
func TestSnapshotCompatRoundTrip(t *testing.T) {
	_, ds := buildWorldDataset(t)
	first := saveV2(t, ds)
	dir := t.TempDir()
	files := map[string][]byte{"world.p2o": first, "world.jsonl": saveJSON(t, ds)}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		readers := map[string]func() (*Dataset, error){
			"Load":     func() (*Dataset, error) { return Load(bytes.NewReader(data)) },
			"LoadFile": func() (*Dataset, error) { return LoadFile(context.Background(), path) },
			"OpenSnapshotFile(mmap)": func() (*Dataset, error) {
				return OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: true})
			},
			"OpenSnapshotFile(readfile)": func() (*Dataset, error) {
				return OpenSnapshotFile(context.Background(), path, OpenOptions{})
			},
		}
		for reader, read := range readers {
			d, err := read()
			if err != nil {
				t.Fatalf("%s(%s): %v", reader, name, err)
			}
			if !d.Lazy() {
				t.Errorf("%s(%s) is not a read Dataset", reader, name)
			}
			if again := saveV2(t, d); !bytes.Equal(first, again) {
				t.Errorf("%s(%s): re-save is not the built Dataset's v2 bytes", reader, name)
			}
			d.Close()
		}
	}

	// A section under a tag this version skips survives a re-save.
	const futureTag = v2SecIndex + 9
	extended := replaceSectionV2(t, first, futureTag, []byte("a section from a later version"))
	for reader, read := range map[string]func() (*Dataset, error){
		"Load":          func() (*Dataset, error) { return Load(bytes.NewReader(extended)) },
		"openViewBytes": func() (*Dataset, error) { return openViewBytes(extended, nil) },
	} {
		d, err := read()
		if err != nil {
			t.Fatalf("%s: unknown section refused: %v", reader, err)
		}
		if again := saveV2(t, d); !bytes.Equal(extended, again) {
			t.Errorf("%s: re-save dropped or changed the unknown section", reader)
		}
	}
}

// TestLookupEagerViewEquivalent: exact-prefix Lookup takes one path —
// the index — on built Datasets and on read ones, whether read from a
// JSON or a v2 snapshot, so all three must answer every query shape
// identically.
func TestLookupEagerViewEquivalent(t *testing.T) {
	_, built := buildWorldDataset(t)
	loaded, err := Load(bytes.NewReader(saveJSON(t, built)))
	if err != nil {
		t.Fatal(err)
	}
	view, err := openViewBytes(saveV2(t, built), nil)
	if err != nil {
		t.Fatal(err)
	}
	if built.Lazy() || !loaded.Lazy() || !view.Lazy() {
		t.Fatalf("Lazy: built=%v loaded=%v view=%v, want false/true/true", built.Lazy(), loaded.Lazy(), view.Lazy())
	}
	var queries []netip.Prefix
	mustHit := 0
	for i := range built.Records {
		p := built.Records[i].Prefix
		queries = append(queries, p) // exact hit
		mustHit++
		if p.Bits() < p.Addr().BitLen() {
			mustHit++
			// Covered by a routed prefix, (mostly) not routed itself:
			// exact Lookup misses where LookupCovering hits.
			queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()+1))
			// The routed prefix with host bits set.
			queries = append(queries, netip.PrefixFrom(p.Addr().Next(), p.Bits()))
		}
	}
	queries = append(queries, netip.Prefix{}, mp("192.0.2.0/24"), mp("::/0"))
	hits := 0
	for _, q := range queries {
		want, wantOK := built.Lookup(q)
		if wantOK {
			hits++
			if want.Prefix != q.Masked() {
				t.Fatalf("Lookup(%s) returned the record of %s", q, want.Prefix)
			}
		}
		for name, d := range map[string]*Dataset{"loaded": loaded, "view": view} {
			got, ok := d.Lookup(q)
			if ok != wantOK || (ok && !reflect.DeepEqual(*got, *want)) {
				t.Fatalf("%s.Lookup(%s) = %v,%v; built dataset says %v,%v", name, q, got, ok, want, wantOK)
			}
		}
	}
	if hits < mustHit || hits == len(queries) {
		t.Fatalf("%d of %d queries hit: want the %d exact and unmasked forms to hit and some of the rest to miss", hits, len(queries), mustHit)
	}
	var zero Dataset
	if _, ok := zero.Lookup(mp("192.0.2.0/24")); ok {
		t.Error("zero Dataset answered a Lookup")
	}
}

// replaceSectionV2 rebuilds a v2 image with one section's payload set —
// swapped in where the tag is present, added in tag order where it is
// not — preserving the directory layout rules (ascending tags, 8-aligned
// section starts).
func replaceSectionV2(t *testing.T, data []byte, tag uint32, payload []byte) []byte {
	t.Helper()
	if !hasMagic(data, binaryMagicV2) {
		t.Fatal("not a v2 image")
	}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	type sec struct {
		tag     uint32
		payload []byte
	}
	var secs []sec
	replaced := false
	for i := 0; i < count; i++ {
		e := data[16+24*i:]
		etag := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		ln := binary.LittleEndian.Uint64(e[16:])
		body := data[off : off+ln]
		if etag > tag && !replaced {
			secs = append(secs, sec{tag, payload})
			replaced = true
		}
		if etag == tag {
			body = payload
			replaced = true
		}
		secs = append(secs, sec{etag, body})
	}
	if !replaced {
		secs = append(secs, sec{tag, payload})
	}
	hdrLen := 16 + 24*len(secs)
	offs := make([]int, len(secs))
	total := hdrLen
	for i, s := range secs {
		total = (total + 7) &^ 7
		offs[i] = total
		total += len(s.payload)
	}
	out := append([]byte(nil), binaryMagicV2[:]...)
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
	return out
}

// TestV2RejectsForeignIndex splices the index of a different dataset
// into a v2 image; the opener's index↔records cross-check must refuse
// it.
func TestV2RejectsForeignIndex(t *testing.T) {
	_, ds := buildWorldDataset(t)
	other := freezeIndex([]Record{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}})

	data := saveV2(t, ds)
	spliced := replaceSectionV2(t, data, v2SecIndex, other.AppendColumns(nil))
	if _, err := openViewBytes(spliced, nil); err == nil {
		t.Error("index of a different dataset accepted by the view opener")
	}
	if _, err := Load(bytes.NewReader(spliced)); err == nil {
		t.Error("index of a different dataset accepted by Load")
	}
}

// TestV2OpenAllocBounded pins the "open does no per-record work" claim:
// opening a view plus the first lookup stays under a fixed allocation
// bound no matter how many records the snapshot holds. (The bound
// absorbs the stats-JSON unmarshal and the fixed view scaffolding.)
func TestV2OpenAllocBounded(t *testing.T) {
	_, ds := buildWorldDataset(t)
	data := saveV2(t, ds)
	addr := ds.Records[0].Prefix.Addr()
	const maxAllocs = 512
	if n := testing.AllocsPerRun(10, func() {
		v, err := openViewBytes(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.LookupAddr(addr); !ok {
			t.Fatal("lookup miss")
		}
	}); n > maxAllocs {
		t.Errorf("open+first-lookup allocates %.0f times (%d records), want <= %d — the opener is doing per-record work",
			n, len(ds.Records), maxAllocs)
	}
}

// TestV2WarmLookupZeroAlloc: once a record chunk is materialized,
// lazy-path lookups are allocation-free, same as the eager serve path.
func TestV2WarmLookupZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	data := saveV2(t, ds)
	v, err := openViewBytes(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 0, 64)
	for i := 0; i < v.NumRecords(); i++ {
		addrs = append(addrs, v.RecordAt(i).Prefix.Addr()) // warms every chunk
		if len(addrs) == cap(addrs) {
			break
		}
	}
	for i := 0; i < v.NumRecords(); i++ {
		_ = v.RecordAt(i)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := v.LookupAddr(addrs[i%len(addrs)]); !ok {
			t.Fatal("lookup miss")
		}
		i++
	}); n != 0 {
		t.Errorf("warm lazy LookupAddr allocates %.1f times per call, want 0", n)
	}
}

// FuzzLoadBinary feeds arbitrary bytes to Load, which opens every
// format through the view opener. It may never panic; on a successful
// open, the accessors and a re-save must hold up too. Anything behind
// the v1 magic must be refused by name.
func FuzzLoadBinary(f *testing.F) {
	// A small handcrafted dataset keeps worker start-up cheap (each fuzz
	// worker process rebuilds the seeds); the world-scale corpus is
	// covered by the deterministic tests above.
	mp := netip.MustParsePrefix
	ds := &Dataset{
		Records: []Record{
			{Prefix: mp("192.0.2.0/24"), RIR: "ARIN", DirectOwner: "Example Net",
				DOType: "allocation", BaseName: "example", FinalCluster: "c1", OriginASN: 64500},
			{Prefix: mp("192.0.2.128/25"), RIR: "ARIN", DirectOwner: "Example Sub",
				DOPrefix: mp("192.0.2.0/24"), DOType: "reallocation",
				DelegatedCustomers: []string{"Cust A"},
				DCPrefixes:         []netip.Prefix{mp("192.0.2.128/26")},
				DCTypes:            []string{"reassignment"},
				BaseName:           "example", FinalCluster: "c1"},
			{Prefix: mp("2001:db8::/32"), RIR: "RIPE", DirectOwner: "Example Six",
				DOType: "allocation", BaseName: "example", RPKICert: "cert-1", FinalCluster: "c1"},
		},
		Clusters: []*Cluster{{
			ID: "c1", BaseName: "example",
			OwnerNames: []string{"Example Net", "Example Six", "Example Sub"},
			Prefixes:   []netip.Prefix{mp("192.0.2.0/24"), mp("2001:db8::/32")},
		}},
	}
	var v2, v1, jsonl bytes.Buffer
	if err := ds.SaveBinary(&v2); err != nil {
		f.Fatal(err)
	}
	if err := ds.SaveBinaryV1(&v1); err != nil {
		f.Fatal(err)
	}
	if err := ds.Save(&jsonl); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(jsonl.Bytes())
	f.Add(v2.Bytes()[:16])
	f.Add(v2.Bytes()[:64])
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add(binaryMagicV2[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if hasMagic(data, binaryMagic) && !errors.Is(err, errSnapshotV1) {
			t.Fatalf("v1-magic input: err = %v, want %q", err, errSnapshotV1)
		}
		if err == nil {
			exerciseDataset(d)
		}
	})
}

// exerciseDataset walks every accessor a fuzz-accepted dataset exposes;
// any latent inconsistency the opener missed shows up here as a panic.
func exerciseDataset(d *Dataset) {
	n := d.NumRecords()
	if n > 256 {
		n = 256
	}
	for i := 0; i < n; i++ {
		r := d.RecordAt(i)
		_, _ = d.LookupAddr(r.Prefix.Addr())
		_, _ = d.LookupCovering(r.Prefix)
	}
	m := d.NumClusters()
	if m > 256 {
		m = 256
	}
	for i := 0; i < m; i++ {
		c := d.ClusterAt(i)
		_, _ = d.ClusterByID(c.ID)
		if len(c.OwnerNames) > 0 {
			_, _ = d.ClusterOfOwner(c.OwnerNames[0])
		}
	}
	_ = d.SaveBinary(io.Discard)
}
