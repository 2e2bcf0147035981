package whois

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Entry is one (prefix, allocation type) registration after flattening:
// ranges expanded to CIDRs, organization references resolved, duplicates
// collapsed to the latest record.
type Entry struct {
	Prefix   netip.Prefix
	Registry alloc.Registry
	Status   string
	OrgName  string
	Updated  time.Time
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
// sharing the latest timestamp the first does. Entries are returned in
// canonical prefix order, then by normalized status, for determinism.
// db is not modified: org: references are resolved in the entries only.
func (db *Database) Flatten() []Entry {
	entries, _ := db.FlattenWithStats()
	return entries
}

// FlattenWithStats is Flatten plus the dedup accounting the pipeline
// trace reports.
func (db *Database) FlattenWithStats() ([]Entry, FlattenStats) {
	var b runBuilder
	for i := range db.Records {
		b.add(&db.Records[i])
	}
	return mergeRuns([]*run{b.finish()}, func(id string) (string, bool) {
		o, ok := db.Orgs[id]
		return o.Name, ok
	})
}

// A run is the flattened form of one batch of records — one registry
// file on the directory path, a whole Database under Flatten: entries in
// canonical (prefix, normalized status) order, one per key. mergeRuns
// turns any number of runs into the one entry list the pipeline reads.
// A run is immutable once built, so reloads share it freely.
type run struct {
	entries []Entry
	// orgIDs parallels entries when any of them still waits for its
	// organisation object (OrgName empty, org: reference set), which may
	// sit in another registry's file; nil otherwise.
	orgIDs []string
	// orgs maps the batch's organisation objects to their names.
	orgs map[string]string
	// records and expanded are the run's share of FlattenStats; skipped
	// counts the records whose allocation type does not resolve.
	records, expanded, skipped int
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

// prefix is keyOf's inverse.
func (k runKey) prefix() netip.Prefix {
	bits := int(k.meta>>metaBitsShift&0xff) - 1
	switch k.meta >> metaFamShift {
	case famV4:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.lo))
		return netip.PrefixFrom(netip.AddrFrom4(b), bits)
	case famNone:
		return netip.PrefixFrom(netip.Addr{}, bits)
	default:
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], k.hi)
		binary.BigEndian.PutUint64(b[8:], k.lo)
		return netip.PrefixFrom(netip.AddrFrom16(b), bits)
	}
}

// flatRec is what a run keeps of one Record until its keys are sorted.
type flatRec struct {
	registry               alloc.Registry
	status, orgName, orgID string
	updated                time.Time
	family                 alloc.Family // Record.Family, for the skip count
	statusID               int32        // set by finish: one per distinct status spelling
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
	orgs map[string]string
}

// add takes r's registrations. It keeps r's strings but not r or its
// Prefixes, so a parser may reuse both.
func (b *runBuilder) add(r *Record) {
	rec := int32(b.recs.n)
	b.recs.push(flatRec{r.Registry, r.Status, r.OrgName, r.OrgID, r.Updated, r.Family(), 0})
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

// finish sorts and de-duplicates what was added. The builder is spent.
func (b *runBuilder) finish() *run {
	r := &run{orgs: b.orgs, records: b.recs.n, expanded: b.keys.n}
	// Status keywords are normalized once per distinct spelling, and the
	// keys then carry the normalized form's rank among the run's own.
	var norms []string
	ids := map[string]int32{}
	// Whether a spelling names a type is asked once per family too, while
	// the registry stays the same — as it does throughout a registry file.
	type typed struct {
		registry  alloc.Registry
		asked, ok bool
	}
	var types [][2]typed
	for i := 0; i < b.recs.n; i++ {
		rec := b.recs.at(i)
		id, ok := ids[rec.status]
		if !ok {
			id = int32(len(norms))
			ids[rec.status] = id
			norms = append(norms, alloc.Normalize(rec.status))
			types = append(types, [2]typed{})
		}
		rec.statusID = id
		t := &types[id][rec.family]
		if !t.asked || t.registry != rec.registry {
			_, err := alloc.Lookup(rec.registry, rec.status, rec.family)
			*t = typed{rec.registry, true, err == nil}
		}
		if !t.ok {
			r.skipped++
		}
	}
	sorted := slices.Clone(norms)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	rank := make([]uint64, len(norms))
	for id, n := range norms {
		pos, _ := slices.BinarySearch(sorted, n)
		rank[id] = uint64(pos)
	}
	keys := make([]runKey, 0, b.keys.n)
	for _, chunk := range b.keys.chunks {
		keys = append(keys, chunk...)
	}
	for i := range keys {
		keys[i].meta |= rank[b.recs.at(int(keys[i].rec)).statusID]
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
			if rec := b.recs.at(int(keys[j].rec)); rec.updated.After(best.updated) {
				best = rec
			}
		}
		if best.orgName == "" && best.orgID != "" {
			if r.orgIDs == nil {
				r.orgIDs = make([]string, n)
			}
			r.orgIDs[len(r.entries)] = best.orgID
		}
		r.entries = append(r.entries, Entry{keys[i].prefix(), best.registry, best.status, best.orgName, best.updated})
		i = j
	}
	*b = runBuilder{}
	return r
}

// compareEntries is the canonical entry order: prefix, then normalized
// status. Runs are already in it, so the normalized forms are only
// derived for two registrations of the same block.
func compareEntries(a, b *Entry) int {
	if c := netx.Compare(a.Prefix, b.Prefix); c != 0 || a.Status == b.Status {
		return c
	}
	return cmp.Compare(alloc.Normalize(a.Status), alloc.Normalize(b.Status))
}

// mergeRuns merges runs (nil ones skipped) into one entry list in
// canonical order, applying the latest-wins rule across them — on a tie
// the earlier run's entry stays, as the earlier record does inside a run
// — and resolving pending org: references through orgName. The runs are
// left untouched; the result is the caller's.
func mergeRuns(runs []*run, orgName func(id string) (string, bool)) ([]Entry, FlattenStats) {
	var stats FlattenStats
	live := make([]*run, 0, len(runs))
	for _, r := range runs {
		if r != nil {
			stats.Records += r.records
			stats.Expanded += r.expanded
			stats.Entries += len(r.entries) // an upper bound until the merge is done
			live = append(live, r)
		}
	}
	out := make([]Entry, 0, stats.Entries)
	emit := func(from *run, at int) {
		e := from.entries[at]
		if e.OrgName == "" && from.orgIDs != nil && from.orgIDs[at] != "" {
			if name, ok := orgName(from.orgIDs[at]); ok {
				e.OrgName = name
			}
		}
		out = append(out, e)
	}
	pos := make([]int, len(live))
	head := func(i int) *Entry { return &live[i].entries[pos[i]] }
	for {
		// first is the earliest run holding the least head, second the
		// earliest holding the least of the others.
		first, second := -1, -1
		for i, r := range live {
			switch {
			case pos[i] == len(r.entries):
			case first < 0 || compareEntries(head(i), head(first)) < 0:
				first, second = i, first
			case second < 0 || compareEntries(head(i), head(second)) < 0:
				second = i
			}
		}
		if first < 0 {
			break
		}
		if second < 0 || compareEntries(head(first), head(second)) < 0 {
			// Registries hold address space in long stretches: first's
			// entries go out until they reach the next run's head.
			for {
				emit(live[first], pos[first])
				pos[first]++
				if pos[first] == len(live[first].entries) || (second >= 0 && compareEntries(head(first), head(second)) >= 0) {
					break
				}
			}
			continue
		}
		// Several runs register this (prefix, status): the latest wins,
		// the earliest run's on a tie. Only runs behind first can match.
		from, at := first, pos[first]
		for i := first + 1; i < len(live); i++ {
			if pos[i] < len(live[i].entries) && compareEntries(head(i), head(first)) == 0 {
				if head(i).Updated.After(live[from].entries[at].Updated) {
					from, at = i, pos[i]
				}
				pos[i]++
			}
		}
		pos[first]++
		emit(live[from], at)
	}
	stats.Entries = len(out)
	return out, stats
}
