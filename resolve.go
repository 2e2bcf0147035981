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

// resolvedRec is one routed prefix's pass-1 output slot. Zero value =
// unmapped (no covering WHOIS record).
type resolvedRec struct {
	rec    Record
	haveDO bool
}

// resolveEnv bundles the read-only inputs of the per-prefix resolution
// pass; a delta rebuild swaps out only the members whose source files
// changed.
type resolveEnv struct {
	// whois is the delegation index (§5.2): per block, all flattened
	// WHOIS entries registered there, post legacy marking and in
	// Flatten order.
	whois      *lpm.Groups[whois.Entry]
	table      *bgp.Table
	repo       *rpki.Repository
	asClusters *as2org.Clusters
}

// resolveIndices runs the per-prefix ownership-resolution pass over the
// routed prefixes whose indices are listed in idxs, writing each outcome
// — including the unmapped zero value — into its slot. Every shared
// structure it reads is immutable for the duration of the call; each
// worker writes only its own slots, so output is identical for every
// worker count.
func resolveIndices(ctx context.Context, env *resolveEnv, routed []netip.Prefix, idxs []int, slots []resolvedRec, workers int) error {
	// Each worker owns one scratch, reused per prefix, so the hottest
	// walks of the pass — the covering chain, typing and ordering each
	// of its levels — allocate only when a prefix outgrows every prefix
	// the worker saw before it.
	resolveOne := func(i int, s *resolveScratch) {
		p := routed[i]
		s.chain = env.whois.Index().CoveringInto(p, s.chain[:0])
		rec, ok := s.resolveOwnership(env.whois, env.repo, p)
		if !ok {
			slots[i] = resolvedRec{}
			return
		}
		if origin, has := env.table.Origin(p); has {
			rec.OriginASN = origin
			rec.ASNCluster = env.asClusters.ClusterID(origin)
		}
		if c, ok := env.repo.ChildMostRC(p); ok {
			rec.RPKICert = c.SKI
		}
		slots[i] = resolvedRec{rec: rec, haveDO: true}
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

// countUnmapped tallies the pass-1 slots with no covering WHOIS record.
// finish skips them in place — the slot slice is not compacted, which
// spares a full copy of every record on the rebuild path.
func countUnmapped(slots []resolvedRec) int {
	unmapped := 0
	for i := range slots {
		if !slots[i].haveDO {
			unmapped++
		}
	}
	return unmapped
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
	threshold := opts.NameFreqThreshold
	if threshold == 0 {
		threshold = adaptiveThreshold(n)
	}
	var prevTraced map[string]names.Steps
	if prev != nil {
		prevTraced = prev.traced
	}
	traced := names.TraceCorpus(mult, threshold, prevTraced)
	c := &cleanState{
		mult:   mult,
		traced: traced,
		base:   make(map[string]string, len(traced)),
		owners: make(map[string]bool, len(traced)),
		steps:  names.CountSteps(traced),
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

// finish runs passes 2–4 (clean-names, cluster, freeze-index) and the
// stats pass over the pass-1 slots, producing the Dataset. Unmapped
// slots (no covering WHOIS record) are skipped in place rather than
// compacted away, so no pass copies the full record set. It writes each
// mapped slot's BaseName; every other slot field is read-only here.
//
// prev and prevIdx are the clean-names state and the frozen index of the
// Dataset the build splices against (nil for a full build) — not
// the Dataset itself, so that nothing here keeps its records and
// retained inputs reachable once the splice is done. Both are immutable
// and reused only when this build provably derives the same value: prev
// when the Direct Owner corpus is the same multiset, prevIdx when the
// records sit on the same prefixes.
func finish(ctx context.Context, tr *obs.Trace, slots []resolvedRec, unmapped int, opts Options, prev *cleanState, prevIdx *lpm.Index) (*Dataset, *cleanState, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	mapped := len(slots) - unmapped
	// Pass 2: base names over the Direct Owner corpus.
	span := tr.Start("clean-names")
	clean := prev
	distinct := 0
	if clean != nil {
		distinct = len(clean.mult)
	}
	mult := make(map[string]int, distinct)
	for i := range slots {
		if slots[i].haveDO {
			mult[slots[i].rec.DirectOwner]++
		}
	}
	if clean == nil || !maps.Equal(clean.mult, mult) {
		clean = cleanNames(mult, mapped, opts, clean)
	}
	for i := range slots {
		if slots[i].haveDO {
			slots[i].rec.BaseName = clean.base[slots[i].rec.DirectOwner]
		}
	}
	span.Add("names", int64(mapped))
	span.Add("base-names", int64(clean.baseNames))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Pass 3: clustering (§5.3).
	span = tr.Start("cluster")
	infos := make([]cluster.PrefixInfo, 0, mapped)
	for i := range slots {
		if !slots[i].haveDO {
			continue
		}
		r := &slots[i].rec
		info := cluster.PrefixInfo{
			Prefix:     r.Prefix,
			OwnerName:  clean.traced[r.DirectOwner].Basic,
			BaseName:   r.BaseName,
			CertSKI:    r.RPKICert,
			ASNCluster: r.ASNCluster,
		}
		if opts.DisableRPKIClusters {
			info.CertSKI = ""
		}
		if opts.DisableASNClusters {
			info.ASNCluster = ""
		}
		infos = append(infos, info)
	}
	cres := cluster.Build(infos)

	ds := &Dataset{Trace: tr}
	for _, c := range cres.Final {
		ds.Clusters = append(ds.Clusters, &Cluster{ID: c.ID, BaseName: c.BaseName, OwnerNames: c.OwnerNames, Prefixes: c.Prefixes})
	}
	ds.indexClusters()
	ds.Records = make([]Record, 0, mapped)
	for i := range slots {
		if !slots[i].haveDO {
			continue
		}
		// infos skipped the same unmapped slots, so the next cluster in
		// cres.Of is this record's. Slots are in routed order, which is
		// already Records' canonical order (see buildState.routed).
		r := slots[i].rec
		if c := cres.Of[len(ds.Records)]; c != nil {
			r.FinalCluster = c.ID
		}
		ds.Records = append(ds.Records, r)
	}
	span.Add("prefixes", int64(len(infos)))
	span.Add("clusters", int64(len(cres.Final)))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Compile the serve-path read indexes, including the frozen LPM
	// index whoisd answers from.
	span = tr.Start("freeze-index")
	if prevIdx != nil && isIndexOf(prevIdx, ds.Records) {
		// The index maps each routed prefix to its position in Records
		// and is never written after Freeze: same prefixes at the same
		// positions, same index.
		ds.idx = prevIdx
	} else {
		ds.freezeIndex()
	}
	span.Add("prefixes", int64(len(ds.Records)))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	span = tr.Start("stats")
	ds.computeStats(cres, clean, unmapped)
	span.End()
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
	src        *whois.Sources
	arinLegacy []netip.Prefix
	env        *resolveEnv
	// routed is in canonical order (netx.Compare), as bgp.Table.Prefixes
	// lists it. finish appends Records in slot order and does not sort:
	// Records' order — the snapshot bytes, the frozen index's positions
	// — is routed's.
	routed []netip.Prefix
	clean  *cleanState
}

// newBuildState starts the state of the build that follows old, or of a
// first build when old is nil: the inputs old loaded, for the load jobs
// to replace source by source; rebuild adds what it derives from them.
func newBuildState(old *buildState, opts Options) *buildState {
	next := &buildState{opts: opts, env: &resolveEnv{}}
	if old != nil {
		next.manifest, next.src, next.arinLegacy, next.routed = old.manifest, old.src, old.arinLegacy, old.routed
		*next.env = *old.env
	}
	return next
}

// InputManifest returns the per-source input manifest captured at build
// time, or nil when the Dataset was not built with Options.Incremental.
func (d *Dataset) InputManifest() *Manifest {
	if d.state == nil {
		return nil
	}
	return d.state.manifest
}
