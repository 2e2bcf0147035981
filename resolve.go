package prefix2org

import (
	"context"
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

func groupEntries(entries []whois.Entry) *lpm.Groups[whois.Entry] {
	return lpm.Group(entries, func(e *whois.Entry) netip.Prefix { return e.Prefix })
}

// resolveIndices runs the per-prefix ownership-resolution pass over the
// routed prefixes whose indices are listed in idxs (nil = all of them),
// writing each outcome — including the unmapped zero value — into its
// slot. Every shared structure it reads is immutable for the duration
// of the call; each worker writes only its own slots, so output is
// identical for every worker count.
func resolveIndices(ctx context.Context, env *resolveEnv, routed []netip.Prefix, idxs []int, slots []resolvedRec, workers int) error {
	n := len(routed)
	if idxs != nil {
		n = len(idxs)
	}
	pick := func(k int) int {
		if idxs == nil {
			return k
		}
		return idxs[k]
	}
	// Each worker owns one covering-chain buffer (group ids, least
	// specific first), re-sliced per prefix, so the hottest walk of the
	// pass allocates only when a chain outgrows every chain seen before
	// it.
	type chainBuf = []int32
	resolveOne := func(i int, buf chainBuf) chainBuf {
		p := routed[i]
		buf = env.whois.Index().CoveringInto(p, buf[:0])
		rec, ok := resolveOwnership(env.whois, buf, env.repo, p)
		if !ok {
			slots[i] = resolvedRec{}
			return buf
		}
		if origin, has := env.table.Origin(p); has {
			rec.OriginASN = origin
			rec.ASNCluster = env.asClusters.ClusterID(origin)
		}
		if c, ok := env.repo.ChildMostRC(p); ok {
			rec.RPKICert = c.SKI
		}
		slots[i] = resolvedRec{rec: rec, haveDO: true}
		return buf
	}
	if workers == 1 {
		var buf chainBuf
		for k := 0; k < n; k++ {
			if k%cancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			buf = resolveOne(pick(k), buf)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	spawn := workers
	if chunks := (n + resolveChunk - 1) / resolveChunk; spawn > chunks {
		spawn = chunks // never spawn workers with nothing to claim
	}
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf chainBuf
			for {
				start := int(next.Add(resolveChunk)) - resolveChunk
				if start >= n || ctx.Err() != nil {
					return
				}
				end := min(start+resolveChunk, n)
				for k := start; k < end; k++ {
					buf = resolveOne(pick(k), buf)
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

// cleanState caches the outcome of the clean-names pass. A delta
// rebuild whose Direct Owner corpus is unchanged (the common case:
// BGP-only or RPKI-only churn) reuses the cleaner, the per-name base
// names, and the Table 2 step counts wholesale; any corpus change —
// different names, different multiset, different order — rebuilds from
// scratch, preserving byte-identity with a full build.
type cleanState struct {
	cleaner *names.Cleaner
	corpus  []string          // Direct Owner names in results order
	base    map[string]string // Direct Owner name -> final base name
	steps   names.StepCounts
}

func sameCorpus(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish runs passes 2–4 (clean-names, cluster, freeze-index) and the
// stats pass over the pass-1 slots, producing the Dataset. Unmapped
// slots (no covering WHOIS record) are skipped in place rather than
// compacted away, so no pass copies the full record set. finish is
// shared verbatim by the full build and the delta rebuild, which is
// what makes delta ≡ full mechanically checkable: everything after
// pass 1 flows through this one function. It writes each mapped slot's
// BaseName; every other slot field is read-only here.
func finish(ctx context.Context, tr *obs.Trace, slots []resolvedRec, unmapped int, repo *rpki.Repository, opts Options, prev *cleanState) (*Dataset, *cleanState, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	mapped := len(slots) - unmapped
	// Pass 2: base names over the Direct Owner corpus.
	span := tr.Start("clean-names")
	corpus := make([]string, 0, mapped)
	for i := range slots {
		if slots[i].haveDO {
			corpus = append(corpus, slots[i].rec.DirectOwner)
		}
	}
	clean := prev
	if clean == nil || !sameCorpus(clean.corpus, corpus) {
		threshold := opts.NameFreqThreshold
		if threshold == 0 {
			threshold = adaptiveThreshold(corpus)
		}
		cleaner := names.NewCleaner(corpus, threshold)
		base := make(map[string]string, len(corpus))
		for _, n := range corpus {
			if _, ok := base[n]; ok {
				continue
			}
			if opts.DisableNameCleaning {
				// Ablation: the base name degenerates to the exact
				// (basic-cleaned) WHOIS name, so only identical names can
				// ever share an R or A group.
				base[n] = basicClean(n)
			} else {
				base[n] = cleaner.BaseName(n)
			}
		}
		clean = &cleanState{cleaner: cleaner, corpus: corpus, base: base, steps: cleaner.CountSteps(corpus)}
	}
	baseNames := map[string]bool{}
	for i := range slots {
		if !slots[i].haveDO {
			continue
		}
		bn := clean.base[slots[i].rec.DirectOwner]
		slots[i].rec.BaseName = bn
		baseNames[bn] = true
	}
	span.Add("names", int64(len(corpus)))
	span.Add("base-names", int64(len(baseNames)))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Pass 3: clustering (§5.3).
	span = tr.Start("cluster")
	bc := basicCleaner{}
	infos := make([]cluster.PrefixInfo, 0, mapped)
	for i := range slots {
		if !slots[i].haveDO {
			continue
		}
		r := &slots[i].rec
		info := cluster.PrefixInfo{
			Prefix:     r.Prefix,
			OwnerName:  bc.clean(r.DirectOwner),
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

	ds := &Dataset{
		Trace:     tr,
		byCluster: make(map[string]*Cluster, len(cres.Final)),
		byOwner:   make(map[string]*Cluster, len(cres.Final)),
	}
	for _, c := range cres.Final {
		pc := &Cluster{ID: c.ID, BaseName: c.BaseName, OwnerNames: c.OwnerNames, Prefixes: c.Prefixes}
		ds.Clusters = append(ds.Clusters, pc)
		ds.byCluster[c.ID] = pc
		for _, o := range c.OwnerNames {
			ds.byOwner[o] = pc
		}
	}
	ds.Records = make([]Record, 0, mapped)
	for i := range slots {
		if !slots[i].haveDO {
			continue
		}
		r := slots[i].rec
		if c, ok := cres.ClusterOfPrefix(r.Prefix); ok {
			r.FinalCluster = c.ID
		}
		ds.Records = append(ds.Records, r)
	}
	slices.SortFunc(ds.Records, func(a, b Record) int {
		return comparePrefix(a.Prefix, b.Prefix)
	})
	span.Add("prefixes", int64(len(infos)))
	span.Add("clusters", int64(len(cres.Final)))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Compile the serve-path read indexes, including the frozen LPM
	// index whoisd answers from.
	span = tr.Start("freeze-index")
	ds.freezeIndex()
	span.Add("prefixes", int64(len(ds.Records)))
	span.End()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	span = tr.Start("stats")
	ds.computeStats(cres, clean.steps, repo, unmapped, bc)
	span.End()
	return ds, clean, nil
}

// buildState is the retained input and intermediate state a delta
// rebuild splices against. It is attached to the Dataset only when
// Options.Incremental is set, and dropped (along with everything it
// pins) as soon as the Dataset itself is released.
type buildState struct {
	opts       Options
	manifest   *Manifest
	src        *whois.Sources
	arinLegacy []netip.Prefix
	env        *resolveEnv
	asData     *as2org.Dataset
	routed     []netip.Prefix // in canonical order, as bgp.Table.Prefixes lists them
	slots      []resolvedRec  // pass-1 outputs in routed order
	clean      *cleanState
}

// InputManifest returns the per-source input manifest captured at build
// time, or nil when the Dataset was not built with Options.Incremental.
func (d *Dataset) InputManifest() *Manifest {
	if d.state == nil {
		return nil
	}
	return d.state.manifest
}
