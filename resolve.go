package prefix2org

import (
	"cmp"
	"context"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/cluster"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/names"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// resolveEnv bundles the read-only inputs of the per-prefix resolution
// pass; a delta rebuild swaps out only the members whose source files
// changed.
type resolveEnv struct {
	// whois is the flattened WHOIS database, grouped into the delegation
	// index (§5.2): per block, all entries registered there, post legacy
	// marking and in Flatten order. It is also what the next load of a
	// data directory takes the registry files it does not re-read from.
	whois *whois.Flat
	table *bgp.Table
	// certs is the RPKI repository's certificate side: all that
	// ChildMostRC and certDiff read.
	certs      *rpki.CertIndex
	asClusters *as2org.Clusters
}

// resolveIndices runs the per-prefix ownership-resolution pass over the
// routed prefixes of st whose indices are listed in idxs, writing each
// mapped outcome into its Record slot and flagging it in mapped; an
// unmapped prefix (no covering WHOIS record) leaves its zero slot and
// flag alone. Every shared structure it reads is immutable for the
// duration of the call; each worker writes only its own slots, so
// output is identical for every worker count.
func resolveIndices(ctx context.Context, st *buildState, idxs []int, recs []Record, mapped []bool, workers int) error {
	env := st.env
	// Each worker owns one scratch, reused per prefix, so the hottest
	// walks of the pass — the covering chain, typing and ordering each
	// of its levels — allocate only when a prefix outgrows every prefix
	// the worker saw before it.
	resolveOne := func(i int, s *resolveScratch) {
		p := st.routed[i]
		s.chain = env.whois.Groups().Index().CoveringInto(p, s.chain[:0])
		rec, ok := s.resolveOwnership(env.whois, env.certs, p)
		if !ok {
			return
		}
		rec.OriginASN = st.origins[i]
		rec.ASNCluster = env.asClusters.ClusterID(rec.OriginASN)
		if c, ok := env.certs.ChildMostRC(p); ok {
			rec.RPKICert = c.SKI
		}
		recs[i], mapped[i] = rec, true
	}
	n := len(idxs)
	var next atomic.Int64
	var wg sync.WaitGroup
	// Never more workers than chunks to claim; Workers=1 is a pool of one.
	for w := min(workers, (n+resolveChunk-1)/resolveChunk); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch resolveScratch
			for {
				start := int(next.Add(resolveChunk)) - resolveChunk
				if start >= n || ctx.Err() != nil {
					return
				}
				for _, i := range idxs[start:min(start+resolveChunk, n)] {
					resolveOne(i, &scratch)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// compactMapped moves the mapped Records of the pass-1 slots to the
// front, in routed order, with their from entries (see splice), and
// returns them with the number of unmapped slots dropped. It copies
// nothing when every routed prefix is mapped: the slots are then the
// Records as they stand.
func compactMapped(recs []Record, mapped []bool, from []int32) ([]Record, []int32, int) {
	n := 0
	for i := range recs {
		if !mapped[i] {
			continue
		}
		if n != i {
			recs[n], from[n] = recs[i], from[i]
		}
		n++
	}
	// The tail holds stale copies of moved records; clear it so the
	// backing array pins nothing they would not.
	clear(recs[n:])
	return recs[:n:n], from[:n], len(recs) - n
}

// finishState is what passes 2–4 keep for the next build to update
// rather than redo: the name table and its traced corpus, the cluster
// pass's integer columns and its result, and the record-only half of
// the Stats. No member is written after the finish that made it, so
// chained deltas — and several deltas from one build — share them
// freely. The zero finishState is the empty one a full build updates.
type finishState struct {
	clean *cleanState
	merge *mergeState
	stats *recordStats
}

// stale reports whether the state's tables hold more names or keys that
// no record uses than ones some record does: the next build then
// finishes from the empty state, and the tables shrink to what is in
// use.
func (f finishState) stale() bool {
	return f.clean != nil && len(f.clean.ownerNames) > 2*f.clean.live ||
		f.merge != nil && len(f.merge.keys) > 2*f.merge.res.Keys
}

// changes are the records a build did not take verbatim from the
// previous one. from gives each record's position in the previous
// Records when the splice kept it verbatim, -1 otherwise; added lists
// the positions of the others (the re-resolved records), and removed
// holds copies of the previous records not kept (the re-resolved and
// the withdrawn ones) — copies, so that the previous Records need not
// stay reachable while passes 2–4 run. Against the empty state every
// record is added.
type changes struct {
	from    []int32
	added   []int32
	removed []Record
}

// changesOf reads the changes of recs off from (see changes) and the
// previous Records; fresh means there is no previous state to update.
func changesOf(recs []Record, from []int32, oldRecs []Record, fresh bool) *changes {
	ch := &changes{from: from}
	kept := make([]bool, len(oldRecs))
	for i := range recs {
		if fresh || from[i] < 0 {
			ch.added = append(ch.added, int32(i))
		} else {
			kept[from[i]] = true
		}
	}
	if !fresh {
		for k, ok := range kept {
			if !ok {
				ch.removed = append(ch.removed, oldRecs[k])
			}
		}
	}
	return ch
}

// cleanState is the clean-names pass's table of WHOIS organization
// names, which the next build updates from the records it changes
// rather than recounting every record. ids numbers every Direct Owner and
// Delegated Customer name the records carry; owner maps each name ID to
// the owner ID of its basic-cleaned form — the W cluster key — which
// owners numbers and ownerNames lists. An ID outlives the records that
// named it, so a build copies a map only when it meets a name the map
// lacks, and none when the names come back; finishState.stale bounds the
// dead IDs. Every other member is a column over those IDs or a count.
type cleanState struct {
	ids        map[string]int32
	owner      []int32
	owners     map[string]int32
	ownerNames []string
	// corpus is the Direct Owner names, by name ID, each weighted by the
	// records it owns: the names pipeline traced over the corpus, and
	// the Table 2 counts.
	corpus *names.Corpus
	// doRefs and dcRefs count, per owner ID, the records whose Direct
	// Owner it is and the Delegated Customer listings that name it.
	doRefs, dcRefs []int32
	// directOwners, customers and onlyCustomers count the owner IDs with
	// Direct Owner records, with Delegated Customer listings, and with
	// listings only; live those with either.
	directOwners, customers, onlyCustomers, live int
}

// update runs pass 2 as an update of c (nil: the empty table) by ch:
// the removed records leave the table, the added ones enter it and get
// their owner ID in rows. It returns the new table, the owners whose
// records or base name changed, and the number of names traced.
func (c *cleanState) update(recs []Record, ch *changes, rows []cluster.Row, opts Options) (*cleanState, []bool, int) {
	if c == nil {
		c = &cleanState{}
	}
	next := *c
	n := &next
	// The columns are c's, clipped: an append reallocates, and the
	// counts are written in a copy.
	n.owner, n.ownerNames = slices.Clip(c.owner), slices.Clip(c.ownerNames)
	n.doRefs, n.dcRefs = slices.Clone(c.doRefs), slices.Clone(c.dcRefs)
	idsCopied, ownersCopied := false, false
	intern := func(name string) int32 {
		if id, ok := n.ids[name]; ok {
			return id
		}
		if !idsCopied {
			n.ids, idsCopied = make(map[string]int32, len(c.ids)+1), true
			maps.Copy(n.ids, c.ids)
		}
		id := int32(len(n.owner))
		n.ids[name] = id
		basic := basicClean(name)
		w, ok := n.owners[basic]
		if !ok {
			if !ownersCopied {
				n.owners, ownersCopied = make(map[string]int32, len(c.owners)+1), true
				maps.Copy(n.owners, c.owners)
			}
			w = int32(len(n.ownerNames))
			n.owners[basic] = w
			n.ownerNames = append(n.ownerNames, basic)
			n.doRefs, n.dcRefs = append(n.doRefs, 0), append(n.dcRefs, 0)
		}
		n.owner = append(n.owner, w)
		return id
	}
	edits := map[int32]*names.Edit{}
	var touched []int32
	record := func(r *Record, d int32) int32 {
		id := intern(r.DirectOwner)
		e := edits[id]
		if e == nil {
			e = &names.Edit{ID: id, Name: r.DirectOwner}
			edits[id] = e
		}
		e.N += d
		w := n.owner[id]
		n.count(w, d, 0)
		touched = append(touched, w)
		for _, dc := range r.DelegatedCustomers {
			n.count(n.owner[intern(dc)], 0, d)
		}
		return w
	}
	for k := range ch.removed {
		record(&ch.removed[k], -1)
	}
	for _, i := range ch.added {
		rows[i].Owner = record(&recs[i], 1)
		if n.ownerNames[rows[i].Owner] == "" {
			rows[i].Owner = -1 // a name with no text owns no W cluster
		}
	}

	list := make([]names.Edit, 0, len(edits))
	for _, e := range edits {
		list = append(list, *e)
	}
	slices.SortFunc(list, func(a, b names.Edit) int { return cmp.Compare(a.ID, b.ID) })
	var traced int
	var moved []int32
	n.corpus, traced, moved = c.corpus.Update(list, adaptiveThreshold(len(recs)), opts.workerCount())
	for _, id := range moved {
		touched = append(touched, n.owner[id])
	}
	mark := make([]bool, len(n.ownerNames))
	for _, w := range touched {
		mark[w] = true
	}
	return n, mark, traced
}

// count adds do Direct Owner records and dc Delegated Customer listings
// to owner w, and keeps the owner counts.
func (c *cleanState) count(w, do, dc int32) {
	wasDO, wasDC := c.doRefs[w] > 0, c.dcRefs[w] > 0
	c.doRefs[w] += do
	c.dcRefs[w] += dc
	isDO, isDC := c.doRefs[w] > 0, c.dcRefs[w] > 0
	c.directOwners += b2i(isDO) - b2i(wasDO)
	c.customers += b2i(isDC) - b2i(wasDC)
	c.onlyCustomers += b2i(isDC && !isDO) - b2i(wasDC && !wasDO)
	c.live += b2i(isDO || isDC) - b2i(wasDO || wasDC)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bases returns each owner ID's base name — the names pipeline's
// result for its Direct Owner names — as an index into the distinct base
// names it also returns; -1 for an owner with no Direct Owner name, or
// whose base name is empty. Under Options.DisableNameCleaning the base
// name degenerates to the exact (basic-cleaned) WHOIS name, so only
// identical names can ever share an R or A group.
func (c *cleanState) bases(opts Options) ([]int32, []string) {
	ids := make([]int32, len(c.ownerNames))
	for w := range ids {
		ids[w] = -1
	}
	var list []string
	index := make(map[string]int32, c.baseNames(opts))
	for id, w := range c.owner {
		s := c.corpus.Steps(int32(id))
		if s == nil || ids[w] >= 0 {
			continue
		}
		base := s.Result()
		if opts.DisableNameCleaning {
			base = s.Basic
		}
		if base == "" {
			continue
		}
		b, ok := index[base]
		if !ok {
			b = int32(len(list))
			index[base] = b
			list = append(list, base)
		}
		ids[w] = b
	}
	return ids, list
}

// baseNames is the number of distinct base names.
func (c *cleanState) baseNames(opts Options) int {
	if opts.DisableNameCleaning {
		return c.corpus.Counts().Basic
	}
	return c.corpus.Counts().Refilled
}

// mergeState is the cluster pass's input as integer columns, and its
// result, which the next build merges against. rows parallels the
// Dataset's Records: each one's owner ID in the cleanState and the key
// IDs of its certificate SKI and ASN cluster ID in keys. Like the name
// table, keys keeps an ID when the last record naming it goes.
type mergeState struct {
	rows []cluster.Row
	keys map[string]int32
	res  *cluster.Result
}

// update runs pass 3 as an update of m (nil: the empty state): the added
// records' keys are interned into rows — the only strings it reads —
// and the merge reruns over the integer columns, rebuilding only the
// clusters an owner in touched is in, or whose owners changed.
func (m *mergeState) update(recs []Record, ch *changes, rows []cluster.Row, own cluster.Owners, opts Options) *mergeState {
	if m == nil {
		m = &mergeState{}
	}
	next := &mergeState{rows: rows, keys: m.keys}
	copied := false
	key := func(s string) int32 {
		if s == "" {
			return -1
		}
		if id, ok := next.keys[s]; ok {
			return id
		}
		if !copied {
			next.keys, copied = make(map[string]int32, len(m.keys)+1), true
			maps.Copy(next.keys, m.keys)
		}
		id := int32(len(next.keys))
		next.keys[s] = id
		return id
	}
	for _, i := range ch.added {
		r := &recs[i]
		rows[i].Cert, rows[i].ASN = -1, -1
		if !opts.DisableRPKIClusters {
			rows[i].Cert = key(r.RPKICert)
		}
		if !opts.DisableASNClusters {
			rows[i].ASN = key(r.ASNCluster)
		}
	}
	next.res = cluster.Merge(m.res, own, rows, len(next.keys), func(i int) netip.Prefix { return recs[i].Prefix })
	return next
}

// isIndexOf reports whether idx, frozen over an earlier record list, is
// also the index of recs: as many entries as records, each mapping its
// prefix to the position that prefix has in recs.
func isIndexOf(idx *lpm.Index, recs []Record) bool {
	if idx.Len() != len(recs) {
		return false
	}
	same := true
	idx.Walk(func(p netip.Prefix, i int32) bool {
		same = recs[i].Prefix == p
		return same
	})
	return same
}

// beside runs fn beside the caller when workers > 1 and returns the
// function that waits for it. With one worker fn runs when that
// function is called instead, so the caller's stages keep their serial
// order on its own goroutine. The waiter may be called more than once.
func beside(workers int, fn func()) (wait func()) {
	if workers < 2 {
		return sync.OnceFunc(fn)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return func() { <-done }
}

// finish runs passes 2–4 (clean-names, cluster, freeze-index) and the
// stats pass over recs — the mapped pass-1 slots, compacted — which
// become the Dataset's Records: the cluster pass writes each one's
// BaseName and FinalCluster, and no pass copies them.
//
// Each pass updates what the build before kept (prev; the zero
// finishState for a full build) from the records the splice did not
// keep verbatim, ch: a removed record leaves the name table, the stats
// and the merge, an added one enters them. So a delta traces only the
// names it has not seen, re-clusters only the components its changes
// reach, and recounts only the changed records; a full build is the same
// update from the empty state. prev is never written: the next state is
// returned.
//
// With Options.Workers > 1 the passes that do not read each other's
// output run beside each other (ARCHITECTURE.md has the contract):
// freeze-index reads only the records' prefixes and runs beside
// clean-names and cluster; the half of the stats that reads only the
// records runs beside cluster. The spans are opened up front in stage
// order, so the trace lists them the same way at every worker count. A
// cancelled ctx returns ctx.Err() once every pass it started is done.
//
// prevIdx is the frozen index of the Dataset the build splices against
// (nil for a full build), reused when the records sit on the same
// prefixes. Neither it nor prev is kept.
func finish(ctx context.Context, tr *obs.Trace, recs []Record, ch *changes, unmapped int, opts Options, prev finishState, prevIdx *lpm.Index) (*Dataset, finishState, error) {
	if err := ctx.Err(); err != nil {
		return nil, finishState{}, err
	}
	workers := opts.workerCount()
	cleanSpan, clusterSpan, freezeSpan, statsSpan := tr.Start("clean-names"), tr.Start("cluster"), tr.Start("freeze-index"), tr.Start("stats")
	ds := &Dataset{Trace: tr, Records: recs}

	// Compile the serve-path read indexes, including the frozen LPM
	// index whoisd answers from. ds.idx is written here alone.
	waitFreeze := beside(workers, func() {
		if ctx.Err() != nil {
			return
		}
		freezeSpan.Restart()
		defer freezeSpan.End()
		if prevIdx != nil && isIndexOf(prevIdx, recs) {
			// The index maps each routed prefix to its position in Records
			// and is never written after Freeze: same prefixes at the same
			// positions, same index.
			ds.idx = prevIdx
		} else {
			ds.idx = freezeIndex(recs)
		}
		freezeSpan.Add("prefixes", int64(len(recs)))
	})
	defer waitFreeze()

	// Pass 2: the name table, and base names over the Direct Owner corpus.
	cleanSpan.Restart()
	rows := make([]cluster.Row, len(recs))
	if prev.merge != nil {
		for i, k := range ch.from {
			if k >= 0 {
				rows[i] = prev.merge.rows[k]
			}
		}
	}
	clean, touched, traced := prev.clean.update(recs, ch, rows, opts)
	own := cluster.Owners{Names: clean.ownerNames, Touched: touched}
	own.Base, own.BaseNames = clean.bases(opts)
	cleanSpan.Add("names", int64(len(recs)))
	cleanSpan.Add("base-names", int64(clean.baseNames(opts)))
	cleanSpan.Add("names-retraced", int64(traced))
	cleanSpan.End()

	if err := ctx.Err(); err != nil {
		return nil, finishState{}, err
	}
	var rs *recordStats
	waitStats := beside(workers, func() {
		if ctx.Err() != nil {
			return
		}
		statsSpan.Restart()
		rs = prev.stats.update(recs, ch)
		statsSpan.Pause()
	})
	defer waitStats()

	// Pass 3: clustering (§5.3).
	clusterSpan.Restart()
	merge := prev.merge.update(recs, ch, rows, own, opts)
	res := merge.res
	for i := range recs {
		recs[i].BaseName, recs[i].FinalCluster = "", ""
		if c := res.Of(rows[i].Owner); c != nil {
			recs[i].BaseName, recs[i].FinalCluster = c.BaseName, c.ID
		}
	}
	ds.Clusters, ds.owners, ds.merge = res.Final, clean.owners, res
	clusterSpan.Add("prefixes", int64(len(recs)))
	clusterSpan.Add("clusters", int64(len(res.Final)))
	clusterSpan.Add("components-rebuilt", int64(res.Rebuilt))
	clusterSpan.Add("clusters-reused", int64(res.Reused))
	clusterSpan.End()

	waitFreeze()
	waitStats()
	if err := ctx.Err(); err != nil {
		return nil, finishState{}, err
	}
	statsSpan.Restart()
	ds.computeStats(res, clean, rs, unmapped, opts)
	statsSpan.End()
	return ds, finishState{clean: clean, merge: merge, stats: rs}, nil
}

// buildState is the input and intermediate state of one build, which the
// next build splices against. It stays attached to the Dataset only when
// Options.Incremental is set (or the build was itself a delta), and is
// dropped, along with everything it pins, as soon as the Dataset itself
// is released.
type buildState struct {
	opts       Options
	manifest   *Manifest
	arinLegacy []netip.Prefix
	env        *resolveEnv
	// routed is the BGP table's prefix column, in canonical order
	// (netx.Compare). The pass-1 slots are routed's, compacted in place
	// without sorting: Records' order — the snapshot bytes, the frozen
	// index's positions — is routed's.
	routed []netip.Prefix
	// origins is the table's column parallel to routed: each prefix's
	// canonical (lowest) origin ASN, which the splice and pass 1 read by
	// position.
	origins []uint32
	fin     finishState
}

// newBuildState starts the state of the build that follows old, or of a
// first build when old is nil: the inputs old loaded, for the load jobs
// to replace source by source; rebuild adds what it derives from them.
func newBuildState(old *buildState, opts Options) *buildState {
	next := &buildState{opts: opts, env: &resolveEnv{}}
	if old != nil {
		next.manifest, next.arinLegacy = old.manifest, old.arinLegacy
		next.routed, next.origins = old.routed, old.origins
		*next.env = *old.env
	}
	return next
}
