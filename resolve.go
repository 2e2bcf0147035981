package prefix2org

import (
	"context"
	"maps"
	"net/netip"
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
// front, in routed order, and returns them with the number of unmapped
// slots dropped. It copies nothing when every routed prefix is mapped:
// the slots are then the Records as they stand.
func compactMapped(recs []Record, mapped []bool) ([]Record, int) {
	n := 0
	for i := range recs {
		if !mapped[i] {
			continue
		}
		if n != i {
			recs[n] = recs[i]
		}
		n++
	}
	// The tail holds stale copies of moved records; clear it so the
	// backing array pins nothing they would not.
	clear(recs[n:])
	return recs[:n:n], len(recs) - n
}

// cleanState caches the outcome of the clean-names pass, which is a
// function of the Direct Owner corpus as a multiset and nothing else. A
// delta rebuild whose corpus is unchanged (the common case: BGP-only or
// RPKI-only churn) reuses it wholesale; any corpus change reruns the
// corpus-dependent back half of the names pipeline once per distinct
// name, taking the front half of every name already traced from here.
// The front halves are a pure-function memo keyed by name, so sharing
// them across chained deltas cannot change an output. A cleanState is
// never written after cleanNames returns: chained deltas and the
// Dataset they were built from share it freely.
type cleanState struct {
	mult      map[string]int         // distinct Direct Owner name -> routed prefixes it owns
	traced    map[string]names.Steps // the names pipeline, run once per distinct name
	base      map[string]string      // Direct Owner name -> final base name
	owners    map[string]bool        // the distinct basic-cleaned Direct Owner names
	baseNames int                    // distinct base names
	steps     names.StepCounts
}

// cleanNames runs pass 2 over the Direct Owner corpus mult (name ->
// multiplicity, n entries in all). prev, when non-nil, supplies the
// front half of the pipeline for the names it already traced.
func cleanNames(mult map[string]int, n int, opts Options, prev *cleanState) *cleanState {
	workers := opts.workerCount()
	var prevTraced map[string]names.Steps
	if prev != nil {
		prevTraced = prev.traced
	}
	traced := names.TraceCorpus(mult, adaptiveThreshold(n), prevTraced, workers)
	c := &cleanState{
		mult:   mult,
		traced: traced,
		base:   make(map[string]string, len(traced)),
		owners: make(map[string]bool, len(traced)),
		steps:  names.CountSteps(traced, workers),
	}
	baseNames := make(map[string]bool, len(traced))
	for name, s := range traced {
		base := s.Result()
		if opts.DisableNameCleaning {
			// Ablation: the base name degenerates to the exact
			// (basic-cleaned) WHOIS name, so only identical names can
			// ever share an R or A group.
			base = s.Basic
		}
		c.base[name] = base
		c.owners[s.Basic] = true
		baseNames[base] = true
	}
	c.baseNames = len(baseNames)
	return c
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
// become the Dataset's Records: clean-names writes each one's BaseName
// and cluster its FinalCluster, and no pass copies them.
//
// With Options.Workers > 1 the passes that do not read each other's
// output run beside each other (ARCHITECTURE.md has the contract):
// freeze-index reads only the records' prefixes and runs beside
// clean-names and cluster; the half of the stats that reads only the
// records runs beside cluster. The spans are opened up front in stage
// order, so the trace lists them the same way at every worker count. A
// cancelled ctx returns ctx.Err() once every pass it started is done.
//
// prev and prevIdx are the clean-names state and the frozen index of the
// Dataset the build splices against (nil for a full build) — not
// the Dataset itself, so that nothing here keeps its records and
// retained inputs reachable once the splice is done. Both are immutable
// and reused only when this build provably derives the same value: prev
// when the Direct Owner corpus is the same multiset, prevIdx when the
// records sit on the same prefixes.
func finish(ctx context.Context, tr *obs.Trace, recs []Record, unmapped int, opts Options, prev *cleanState, prevIdx *lpm.Index) (*Dataset, *cleanState, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
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

	// Pass 2: base names over the Direct Owner corpus.
	cleanSpan.Restart()
	clean := prev
	distinct := 0
	if clean != nil {
		distinct = len(clean.mult)
	}
	mult := make(map[string]int, distinct)
	for i := range recs {
		mult[recs[i].DirectOwner]++
	}
	if clean == nil || !maps.Equal(clean.mult, mult) {
		clean = cleanNames(mult, len(recs), opts, clean)
	}
	for i := range recs {
		recs[i].BaseName = clean.base[recs[i].DirectOwner]
	}
	cleanSpan.Add("names", int64(len(recs)))
	cleanSpan.Add("base-names", int64(clean.baseNames))
	cleanSpan.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var rs recordStats
	waitStats := beside(workers, func() {
		if ctx.Err() != nil {
			return
		}
		statsSpan.Restart()
		rs = countRecords(recs, clean)
		statsSpan.Pause()
	})
	defer waitStats()

	// Pass 3: clustering (§5.3).
	clusterSpan.Restart()
	infos := make([]cluster.PrefixInfo, len(recs))
	for i := range recs {
		r := &recs[i]
		infos[i] = cluster.PrefixInfo{
			Prefix:     r.Prefix,
			OwnerName:  clean.traced[r.DirectOwner].Basic,
			BaseName:   r.BaseName,
			CertSKI:    r.RPKICert,
			ASNCluster: r.ASNCluster,
		}
		if opts.DisableRPKIClusters {
			infos[i].CertSKI = ""
		}
		if opts.DisableASNClusters {
			infos[i].ASNCluster = ""
		}
	}
	cres := cluster.Build(infos)
	ds.Clusters = make([]*Cluster, len(cres.Final))
	ds.byOwner = make(map[string]*Cluster, cres.WCount)
	for i, c := range cres.Final {
		ds.Clusters[i] = &Cluster{ID: c.ID, BaseName: c.BaseName, OwnerNames: c.OwnerNames, Prefixes: c.Prefixes}
		for _, o := range c.OwnerNames {
			ds.byOwner[o] = ds.Clusters[i]
		}
	}
	// infos parallels recs, so cres.Of[i] is record i's cluster.
	for i, c := range cres.Of {
		if c != nil {
			recs[i].FinalCluster = c.ID
		}
	}
	clusterSpan.Add("prefixes", int64(len(infos)))
	clusterSpan.Add("clusters", int64(len(cres.Final)))
	clusterSpan.End()

	waitFreeze()
	waitStats()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	statsSpan.Restart()
	ds.computeStats(cres, clean, unmapped, &rs)
	statsSpan.End()
	return ds, clean, nil
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
	clean   *cleanState
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
