package whois

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Entry is one (prefix, allocation type) registration after flattening:
// ranges expanded to CIDRs, organization references resolved, duplicates
// collapsed to the latest record.
//
// An Entry is 40 bytes and holds no pointer. Its prefix is kept as the
// address words of a runKey, and its strings as ids into the string
// table of the Flat holding it, which reads them back (Flat.Status,
// Flat.OrgName): an id means nothing without its table.
type Entry struct {
	hi, lo uint64
	// Updated is the record's last-modified time in Unix seconds:
	// registries stamp records to the second.
	Updated int64
	status  uint32
	// org is the organization name; for a record that named its
	// organization by reference only, the name orgID resolved to at the
	// merge, or "" when it resolved to nothing.
	org, orgID uint32
	bits       uint8 // prefix length + 1: 0 for an invalid prefix's -1
	fam        uint8
	reg        uint8 // registry id: see registryIDs
	// legacy marks an ARIN allocation on the legacy non-signer list,
	// which reads as Allocation-Legacy (markARINLegacy).
	legacy bool
}

// Prefix returns the registered block.
func (e *Entry) Prefix() netip.Prefix {
	bits := int(e.bits) - 1
	switch e.fam {
	case famV4:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(e.lo))
		return netip.PrefixFrom(netip.AddrFrom4(b), bits)
	case famNone:
		return netip.PrefixFrom(netip.Addr{}, bits)
	default:
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], e.hi)
		binary.BigEndian.PutUint64(b[8:], e.lo)
		return netip.PrefixFrom(netip.AddrFrom16(b), bits)
	}
}

// Registry returns the registry the record came from; "" for one alloc
// does not know, which no allocation type belongs to.
func (e *Entry) Registry() alloc.Registry { return registryOf[e.reg] }

// Family returns the block's address family.
func (e *Entry) Family() alloc.Family {
	if e.fam == famV4 {
		return alloc.IPv4
	}
	return alloc.IPv6
}

// registryIDs numbers the registries an Entry names: the ones with a bulk
// file first, in registryFiles order, so that comparing two ids compares
// file order, which the merge's tie rule reads; then the rest of alloc's.
// Id 0 is any other registry. registryOf is the inverse.
var registryIDs, registryOf = func() (map[alloc.Registry]uint8, []alloc.Registry) {
	of := []alloc.Registry{""}
	for _, rf := range registryFiles {
		of = append(of, rf.Registry)
	}
	for _, r := range append(slices.Clone(alloc.RIRs), alloc.NIRs...) {
		if !slices.Contains(of, r) {
			of = append(of, r)
		}
	}
	ids := make(map[alloc.Registry]uint8, len(of))
	for id, r := range of[1:] {
		ids[r] = uint8(id + 1)
	}
	return ids, of
}()

// legacyStatus is the Prefix2Org type ARIN allocations on the legacy
// non-signer list take (no R3).
const legacyStatus = "Allocation-Legacy"

// Flat is a flattened WHOIS database: every (prefix, status)
// registration once, in canonical order (prefix, then normalized
// status), grouped by block for the covering walks of §5.2, with the one
// string table its entries' ids index.
//
// The table is sorted, so ids compare as their strings do, and it holds
// what the Flat's entries name and nothing else: it is built afresh at
// every merge from the entries that survive it, so a chain of reloads
// never grows it. A Flat is immutable once built and safe for concurrent
// readers; a reload merges into a new Flat and shares nothing mutable
// with this one.
type Flat struct {
	strs    []string
	entries []Entry
	groups  *lpm.Groups[Entry] // over entries itself, not a copy
	// What the next load of a directory needs for the registry files it
	// does not re-read; nil for a Database's Flat. losers are the
	// entries that lost the latest-record-wins rule to another registry's
	// (one registry's own losers never outlive its file's flatten), in
	// canonical order; files is one per registryFiles slot.
	losers []Entry
	files  []fileInfo
	types  map[netip.Prefix]string // the JPNIC type cache; nil without the file
}

// fileInfo is what a load keeps of one registry file besides its
// entries.
type fileInfo struct {
	present bool
	// records and expanded are the file's share of FlattenStats; skipped
	// counts the records whose allocation type does not resolve.
	records, expanded, skipped int
	// orgs maps the file's organisation objects to their names.
	orgs map[string]string
}

// Entries returns every registration, in canonical order. The slice is
// shared: read-only.
func (f *Flat) Entries() []Entry { return f.entries }

// Groups returns the delegation index: per registered block, the entries
// registered there, in canonical order. Its items are Entries itself.
func (f *Flat) Groups() *lpm.Groups[Entry] { return f.groups }

// Status returns e's raw allocation-type keyword.
func (f *Flat) Status(e *Entry) string {
	if e.legacy {
		return legacyStatus
	}
	return f.strs[e.status]
}

// OrgName returns e's organization name: the record's own, or the name
// its org: reference resolved to.
func (f *Flat) OrgName(e *Entry) string { return f.strs[e.org] }

// Type resolves e's allocation type.
func (f *Flat) Type(e *Entry) (alloc.Type, error) {
	return alloc.Lookup(e.Registry(), f.Status(e), e.Family())
}

// Strings returns the number of strings in the table.
func (f *Flat) Strings() int { return len(f.strs) }

// ChangedBlocks returns, sorted, the blocks whose entry groups differ
// between old and f: groups added, removed, or with any entry changed.
// A routed prefix's resolution reads exactly the groups at blocks
// covering it, so these blocks delimit the WHOIS-affected region of the
// address space. Both Flats are in canonical order, so the groups
// compare entry by entry, and through one mapping of old's ids into f's
// table every field compares as an integer.
func (f *Flat) ChangedBlocks(old *Flat) []netip.Prefix {
	ids := mapIDs(old.strs, f.strs)
	same := func(a, b []Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			x, y := &a[i], &b[i]
			if x.hi != y.hi || x.lo != y.lo || x.bits != y.bits || x.fam != y.fam ||
				x.reg != y.reg || x.legacy != y.legacy || x.Updated != y.Updated ||
				ids[x.status] != y.status || ids[x.org] != y.org {
				return false
			}
		}
		return true
	}
	og, ng := old.groups, f.groups
	var dirty []netip.Prefix
	og.Index().Walk(func(p netip.Prefix, id int32) bool {
		if !same(og.At(id), ng.Get(p)) { // Get is nil for a removed group
			dirty = append(dirty, p)
		}
		return true
	})
	ng.Index().Walk(func(p netip.Prefix, _ int32) bool {
		if og.Get(p) == nil {
			dirty = append(dirty, p)
		}
		return true
	})
	netx.Sort(dirty)
	return dirty
}

// mapIDs maps each id of the sorted table from to the id of the same
// string in the sorted table to, or to an id no entry holds when to
// lacks it.
func mapIDs(from, to []string) []uint32 {
	ids := make([]uint32, len(from))
	j := 0
	for i, s := range from {
		for j < len(to) && to[j] < s {
			j++
		}
		if j < len(to) && to[j] == s {
			ids[i] = uint32(j)
		} else {
			ids[i] = ^uint32(0)
		}
	}
	return ids
}

// FlattenStats accounts for one Flatten pass: Records in, Expanded
// (prefix, status) pairs after range expansion, Entries surviving the
// latest-record-wins dedup. Expanded - Entries is the number of
// de-duplicated WHOIS registrations.
type FlattenStats struct {
	Records  int
	Expanded int
	Entries  int
}

// Deduped returns the number of registrations dropped by the
// latest-record-wins rule.
func (s FlattenStats) Deduped() int { return s.Expanded - s.Entries }

// Flatten expands db into per-prefix entries. For each (prefix, normalized
// status) pair only the most recently updated record survives — the
// paper's rule for handling re-registered blocks; of several records
// sharing the latest timestamp the first does. Entries are in canonical
// prefix order, then by normalized status, for determinism. db is not
// modified: org: references are resolved in the entries only.
func (db *Database) Flatten() *Flat {
	f, _ := db.FlattenWithStats(nil)
	return f
}

// FlattenWithStats is Flatten plus the dedup accounting the pipeline
// trace reports, with the ARIN allocations on the legacy non-signer list
// legacy retyped (markARINLegacy).
func (db *Database) FlattenWithStats(legacy []netip.Prefix) (*Flat, FlattenStats) {
	var b runBuilder
	for i := range db.Records {
		b.add(&db.Records[i])
	}
	r := b.finish()
	f := merge([]input{{entries: r.entries, tab: &table{strs: r.strs}}}, func(id string) (string, bool) {
		o, ok := db.Orgs[id]
		return o.Name, ok
	})
	f.finish(legacy)
	return f, FlattenStats{Records: r.info.records, Expanded: r.info.expanded, Entries: len(f.entries)}
}

// finish retypes the legacy allocations and groups the entries: the
// last writes a Flat takes.
func (f *Flat) finish(legacy []netip.Prefix) {
	f.markARINLegacy(legacy)
	f.groups = lpm.GroupInPlace(f.entries, func(e *Entry) netip.Prefix { return e.Prefix() })
}

// markARINLegacy retypes the ARIN allocations on the legacy non-signer
// list to the Prefix2Org modified type (no R3).
func (f *Flat) markARINLegacy(legacy []netip.Prefix) {
	if len(legacy) == 0 {
		return
	}
	set := make(map[netip.Prefix]bool, len(legacy))
	for _, p := range legacy {
		set[p.Masked()] = true
	}
	arin := registryIDs[alloc.ARIN]
	for i := range f.entries {
		e := &f.entries[i]
		if e.reg == arin && set[e.Prefix()] {
			if t, err := f.Type(e); err == nil && t.DirectOwner() {
				e.legacy = true
			}
		}
	}
}

// A run is the flattened form of one batch of records — one registry
// file on the directory path, a whole Database under Flatten: entries in
// canonical (prefix, normalized status) order, one per key, with ids
// into the run's own string table. merge turns runs into a Flat.
type run struct {
	entries []Entry
	strs    []string // strs[0] == ""
	info    fileInfo
}

// Address families in canonical order (netx.Compare): IPv4 first; then
// whatever has no valid address, which only a hand-built Database holds;
// then IPv6.
const (
	famV4 = iota
	famNone
	famV6
)

// runKey is one expanded (prefix, status) pair while a run is built:
// pointer-free, so sorting keys moves no strings and the collector skips
// the slice.
type runKey struct {
	hi, lo uint64
	// meta is family<<40 | (bits+1)<<32 | status rank. The family leads
	// the order, ahead of the address; the rest follows it.
	meta uint64
	rec  int32 // index of the source record: input order, the last sort key
}

const (
	metaFamShift  = 40
	metaBitsShift = 32
)

func compareRunKeys(a, b runKey) int {
	if fa, fb := a.meta>>metaFamShift, b.meta>>metaFamShift; fa != fb {
		return cmp.Compare(fa, fb)
	}
	if a.hi != b.hi {
		return cmp.Compare(a.hi, b.hi)
	}
	if a.lo != b.lo {
		return cmp.Compare(a.lo, b.lo)
	}
	if a.meta != b.meta {
		return cmp.Compare(a.meta, b.meta)
	}
	return cmp.Compare(a.rec, b.rec)
}

func (k runKey) sameKey(o runKey) bool { return k.hi == o.hi && k.lo == o.lo && k.meta == o.meta }

// keyOf splits p into the address columns and the family and length
// bits of a runKey's meta. Bits() is -1 for an invalid prefix, hence +1.
func keyOf(p netip.Prefix) (hi, lo, meta uint64) {
	a := p.Addr()
	meta = uint64(p.Bits()+1) << metaBitsShift
	switch {
	case a.Is4():
		b := a.As4()
		return 0, uint64(binary.BigEndian.Uint32(b[:])), meta | famV4<<metaFamShift
	case !a.IsValid():
		return 0, 0, meta | famNone<<metaFamShift
	default:
		b := a.As16()
		return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), meta | famV6<<metaFamShift
	}
}

// flatRec is what a run keeps of one Record until its keys are sorted.
type flatRec struct {
	updated            int64
	status, org, orgID uint32 // ids into the builder's table
	reg                uint8
	family             alloc.Family // Record.Family, for the skip count
}

// chunked is an append-only list held in fixed-size chunks: growing it
// copies nothing and over-allocates less than one chunk, where append,
// growing a large slice by a quarter at a time, allocates five times what
// the slice ends up holding.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

const chunkLen = 1 << 8

func (c *chunked[T]) push(v T) {
	if c.n%chunkLen == 0 {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, v)
	c.n++
}

func (c *chunked[T]) at(i int) *T { return &c.chunks[i/chunkLen][i%chunkLen] }

// runBuilder collects records into a run. The zero value is ready.
type runBuilder struct {
	keys chunked[runKey] // in add order
	recs chunked[flatRec]
	strs []string // the run's table; strs[0] == ""
	ids  map[string]uint32
	orgs map[string]string
}

// id interns s into the builder's table.
func (b *runBuilder) id(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := b.ids[s]; ok {
		return id
	}
	if b.ids == nil {
		b.ids, b.strs = map[string]uint32{}, []string{""}
	}
	id := uint32(len(b.strs))
	b.ids[s], b.strs = id, append(b.strs, s)
	return id
}

// idBytes is id off a reader's buffer: a string is made only on first
// sight.
func (b *runBuilder) idBytes(s []byte) uint32 {
	if id, ok := b.ids[string(s)]; ok {
		return id
	}
	return b.id(string(s))
}

// add takes r's registrations. It keeps r's strings but not r or its
// Prefixes, so a parser may reuse both. The organization reference is
// kept only while it is all the record names of its organization.
func (b *runBuilder) add(r *Record) {
	rec := int32(b.recs.n)
	fr := flatRec{updated: r.Updated.Unix(), status: b.id(r.Status), org: b.id(r.OrgName), reg: registryIDs[r.Registry], family: r.Family()}
	if fr.org == 0 {
		fr.orgID = b.id(r.OrgID)
	}
	b.recs.push(fr)
	for _, p := range r.Prefixes {
		hi, lo, meta := keyOf(p)
		b.keys.push(runKey{hi, lo, meta, rec})
	}
}

// addOrg records an organisation object; a later one replaces an earlier
// one with the same ID.
func (b *runBuilder) addOrg(id, name string) {
	if b.orgs == nil {
		b.orgs = map[string]string{}
	}
	b.orgs[id] = name
}

// sortTable sorts the builder's table, renumbering what was added, and
// returns it. Every table a merge reads is sorted, so the merge builds
// its own in one pass over them; sorting here puts that work on each
// file's own goroutine.
func (b *runBuilder) sortTable() []string {
	if b.strs == nil {
		return []string{""}
	}
	order := make([]uint32, len(b.strs)) // sorted position → id
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return cmp.Compare(b.strs[x], b.strs[y]) })
	to := make([]uint32, len(b.strs))
	sorted := make([]string, len(b.strs))
	for pos, id := range order {
		to[id], sorted[pos] = uint32(pos), b.strs[id]
	}
	for i := 0; i < b.recs.n; i++ {
		rec := b.recs.at(i)
		rec.status, rec.org, rec.orgID = to[rec.status], to[rec.org], to[rec.orgID]
	}
	return sorted
}

// finish sorts and de-duplicates what was added. The builder is spent.
func (b *runBuilder) finish() *run {
	r := &run{strs: b.sortTable(), info: fileInfo{present: true, orgs: b.orgs, records: b.recs.n, expanded: b.keys.n}}
	// Status keywords are normalized once per distinct spelling, and the
	// keys then carry the normalized form's rank among the run's own.
	// Whether a spelling names a type is asked once per family too, while
	// the registry stays the same — as it does throughout a registry file.
	type typed struct {
		reg       uint8
		asked, ok bool
	}
	slot := make([]int32, len(r.strs)) // status id → its slot + 1
	var norms []string
	var types [][2]typed
	for i := 0; i < b.recs.n; i++ {
		rec := b.recs.at(i)
		if slot[rec.status] == 0 {
			norms = append(norms, alloc.Normalize(r.strs[rec.status]))
			types = append(types, [2]typed{})
			slot[rec.status] = int32(len(norms))
		}
		t := &types[slot[rec.status]-1][rec.family]
		if !t.asked || t.reg != rec.reg {
			_, err := alloc.Lookup(registryOf[rec.reg], r.strs[rec.status], rec.family)
			*t = typed{rec.reg, true, err == nil}
		}
		if !t.ok {
			r.info.skipped++
		}
	}
	sorted := slices.Clone(norms)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	rank := make([]uint64, len(norms))
	for i, n := range norms {
		pos, _ := slices.BinarySearch(sorted, n)
		rank[i] = uint64(pos)
	}
	keys := make([]runKey, 0, b.keys.n)
	for _, chunk := range b.keys.chunks {
		keys = append(keys, chunk...)
	}
	for i := range keys {
		keys[i].meta |= rank[slot[b.recs.at(int(keys[i].rec)).status]-1]
	}
	slices.SortFunc(keys, compareRunKeys)

	n := 0
	for i, k := range keys {
		if i == 0 || !k.sameKey(keys[i-1]) {
			n++
		}
	}
	r.entries = make([]Entry, 0, n)
	for i := 0; i < len(keys); {
		// Keys of one (prefix, status) sit together in input order: the
		// latest record wins, the first of the latest on a tie.
		best := b.recs.at(int(keys[i].rec))
		j := i + 1
		for ; j < len(keys) && keys[j].sameKey(keys[i]); j++ {
			if rec := b.recs.at(int(keys[j].rec)); rec.updated > best.updated {
				best = rec
			}
		}
		k := keys[i]
		r.entries = append(r.entries, Entry{
			hi: k.hi, lo: k.lo, Updated: best.updated,
			status: best.status, org: best.org, orgID: best.orgID,
			bits: uint8(k.meta >> metaBitsShift), fam: uint8(k.meta >> metaFamShift), reg: best.reg,
		})
		i = j
	}
	*b = runBuilder{}
	return r
}

// input is one stream of a merge: entries in canonical order, one per
// key, with the table their ids index. Entries of the registries in drop
// (a bit per registry id) are skipped.
type input struct {
	entries []Entry
	tab     *table
	drop    uint32
}

func (in *input) skips(e *Entry) bool { return in.drop>>e.reg&1 != 0 }

// table carries one sorted string table into a merge; several inputs
// may share one.
type table struct {
	strs []string
	uses []uint8 // per id: what the merge's entries use it as
	// to maps each used id to the merged table's; orgs maps each org:
	// reference id to the merged id of the name it resolves to, 0 when
	// it resolves to nothing.
	to, orgs []uint32
}

// strRef is one string on its way into a merged table, and the slot its
// merged id goes to.
type strRef struct {
	s  string
	to *uint32
}

const (
	usedAsString = 1 << iota
	usedAsStatus
	usedAsOrgRef
)

// merge merges ins into a Flat's entries and table: for each key the
// latest entry wins, the one from the earliest registry (registryIDs) on
// a tie — the earlier file of a directory, as a Database's earlier record
// wins inside a run — and the others are the Flat's losers. A pending
// org: reference resolves through orgName afresh. The inputs' entries
// are left untouched.
func merge(ins []input, orgName func(id string) (string, bool)) *Flat {
	all, tabs, live := mergeTables(ins, orgName)
	rank := statusRanks(all, tabs)
	// Losers are rare: the entries are sized for every live input entry.
	f := &Flat{strs: all, entries: make([]Entry, 0, live)}
	curs := make([]cursor, len(ins))
	for i := range ins {
		curs[i] = cursor{in: &ins[i], rank: rank, pos: -1}
		curs[i].next()
	}
	for {
		// least is the cursor at the least key, the earliest on a tie;
		// ties counts the cursors at that key.
		least, ties := -1, 0
		for i := range curs {
			if curs[i].done() {
				continue
			}
			if least < 0 {
				least, ties = i, 1
				continue
			}
			switch d := compareRunKeys(curs[i].key, curs[least].key); {
			case d < 0:
				least, ties = i, 1
			case d == 0:
				ties++
			}
		}
		if least < 0 {
			return f
		}
		c := &curs[least]
		if ties == 1 {
			// Registries hold address space in long stretches: least's
			// entries go out until they reach another input's head.
			var bound *runKey
			for i := range curs {
				if o := &curs[i]; i != least && !o.done() && (bound == nil || compareRunKeys(o.key, *bound) < 0) {
					bound = &o.key
				}
			}
			for !c.done() && (bound == nil || compareRunKeys(c.key, *bound) < 0) {
				f.entries = append(f.entries, c.emit())
				c.next()
			}
			continue
		}
		// Several registries hold this (prefix, status): the latest wins,
		// the earliest registry's on a tie.
		key, win := c.key, least
		for i := least + 1; i < len(curs); i++ {
			if o := &curs[i]; !o.done() && compareRunKeys(o.key, key) == 0 {
				w, e := curs[win].head(), o.head()
				if e.Updated > w.Updated || (e.Updated == w.Updated && e.reg < w.reg) {
					win = i
				}
			}
		}
		for i := least; i < len(curs); i++ {
			o := &curs[i]
			if o.done() || compareRunKeys(o.key, key) != 0 {
				continue
			}
			if i == win {
				f.entries = append(f.entries, o.emit())
			} else {
				f.losers = append(f.losers, o.emit())
			}
			o.next()
		}
	}
}

// mergeTables builds a merge's string table: every string a kept entry
// names, losers included, and the name each org: reference resolves to.
// It fills each input table's mapping into it and returns it, the
// distinct input tables, and the number of entries the inputs keep.
func mergeTables(ins []input, orgName func(id string) (string, bool)) (all []string, tabs []*table, live int) {
	for _, in := range ins {
		t := in.tab
		if t.uses == nil {
			t.uses = make([]uint8, len(t.strs))
			tabs = append(tabs, t)
		}
		for i := range in.entries {
			e := &in.entries[i]
			if in.skips(e) {
				continue
			}
			live++
			t.uses[e.status] |= usedAsString | usedAsStatus
			if e.orgID == 0 {
				t.uses[e.org] |= usedAsString
				continue
			}
			t.uses[e.orgID] |= usedAsString | usedAsOrgRef
		}
	}
	// Every input table is sorted, and so are the resolved names once
	// sorted: the merged table is their union, merged in one pass, and
	// each string's merged id is written to the slot waiting for it.
	lists := make([][]strRef, 0, len(tabs)+1)
	var names []strRef
	for _, t := range tabs {
		t.to = make([]uint32, len(t.strs))
		n := 0
		for _, u := range t.uses {
			if u != 0 {
				n++
			}
		}
		l := make([]strRef, 0, n)
		for id, u := range t.uses {
			if u != 0 {
				l = append(l, strRef{t.strs[id], &t.to[id]})
			}
		}
		lists = append(lists, l)
		for id, u := range t.uses {
			if u&usedAsOrgRef == 0 {
				continue
			}
			if t.orgs == nil {
				t.orgs = make([]uint32, len(t.strs))
			}
			name, _ := orgName(t.strs[id])
			names = append(names, strRef{name, &t.orgs[id]})
		}
	}
	slices.SortFunc(names, func(a, b strRef) int { return cmp.Compare(a.s, b.s) })
	all = []string{""}
	for lists = append(lists, names); ; {
		least := -1
		for i, l := range lists {
			if len(l) > 0 && (least < 0 || l[0].s < lists[least][0].s) {
				least = i
			}
		}
		if least < 0 {
			break
		}
		r := lists[least][0]
		lists[least] = lists[least][1:]
		if r.s != all[len(all)-1] {
			all = append(all, r.s)
		}
		*r.to = uint32(len(all) - 1)
	}
	return slices.Clone(all), tabs, live // kept: no spare capacity
}

// statusRanks maps each merged status id to its normalized form's place
// among all of them: the canonical order's second key.
func statusRanks(all []string, tabs []*table) []uint32 {
	var statuses []uint32
	isStatus := make([]bool, len(all))
	for _, t := range tabs {
		for id, u := range t.uses {
			if to := t.to[id]; u&usedAsStatus != 0 && !isStatus[to] {
				isStatus[to] = true
				statuses = append(statuses, to)
			}
		}
	}
	norms := make([]string, len(statuses))
	for i, id := range statuses {
		norms[i] = alloc.Normalize(all[id])
	}
	sorted := slices.Clone(norms)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	rank := make([]uint32, len(all))
	for i, id := range statuses {
		pos, _ := slices.BinarySearch(sorted, norms[i])
		rank[id] = uint32(pos)
	}
	return rank
}

// cursor walks one input of a merge.
type cursor struct {
	in   *input
	rank []uint32
	pos  int
	key  runKey // of the head, in the merged table's status ranks, while not done
}

func (c *cursor) done() bool   { return c.pos == len(c.in.entries) }
func (c *cursor) head() *Entry { return &c.in.entries[c.pos] }

// next moves to the next entry the input does not skip.
func (c *cursor) next() {
	for c.pos++; !c.done() && c.in.skips(c.head()); c.pos++ {
	}
	if !c.done() {
		e := c.head()
		c.key = runKey{hi: e.hi, lo: e.lo, meta: uint64(e.fam)<<metaFamShift | uint64(e.bits)<<metaBitsShift | uint64(c.rank[c.in.tab.to[e.status]])}
	}
}

// emit returns the head in the merged table's ids, its org: reference
// resolved afresh and its legacy mark cleared.
func (c *cursor) emit() Entry {
	e, t := *c.head(), c.in.tab
	e.status = t.to[e.status]
	if e.orgID != 0 {
		e.org, e.orgID = t.orgs[e.orgID], t.to[e.orgID]
	} else {
		e.org = t.to[e.org]
	}
	e.legacy = false
	return e
}
