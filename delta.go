package prefix2org

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// ErrNoChange reports that the data directory's manifest is identical to
// the previous build's: there is nothing to rebuild. Callers keep
// serving the previous snapshot.
var ErrNoChange = errors.New("prefix2org: inputs unchanged since previous build")

// ErrNoDeltaState reports that the previous Dataset carries no retained
// delta state — it was not built with Options.Incremental, or it was
// loaded from a snapshot file. Callers fall back to a full rebuild.
var ErrNoDeltaState = errors.New("prefix2org: previous dataset has no delta state (build with Options.Incremental)")

// DeltaResult is the outcome of a build from a data directory: an
// incremental one (BuildDelta) or a full one (BuildFromDir), which is
// the delta from no previous build.
type DeltaResult struct {
	// Dataset is the new snapshot, byte-identical to what a full
	// BuildFromDir over the same directory would produce. It carries
	// fresh delta state, so deltas chain.
	Dataset *Dataset
	// ChangedFiles lists the manifest-relative paths that differed from
	// the previous build's manifest — every hashed file for a full build,
	// nil when a full build hashed none (Options.Incremental unset).
	ChangedFiles []string
	// Affected is the number of routed prefixes re-resolved; Reused the
	// number spliced unchanged from the previous pass-1 output; Removed
	// the number of previously routed prefixes no longer in the table.
	Affected, Reused, Removed int
}

// BuildDelta incrementally rebuilds the Dataset for dir against a
// previous Incremental build: it hashes the per-source input manifest,
// re-parses only the files that changed, computes the affected routed
// prefix set (prefixes whose covering WHOIS chain, origin, origin-ASN
// cluster, or covering RPKI certificates changed), re-runs the
// per-prefix resolution pass over that set only, and splices the reused
// pass-1 slots into a new snapshot. A full build is the same code run
// against no previous build, so the result is byte-identical to
// BuildFromDir over the same directory — the invariant the synth
// evolution tests assert on every step.
//
// Any error leaves prev untouched; callers fall back to a full rebuild.
// ErrNoChange means there is nothing to do at all.
func BuildDelta(ctx context.Context, prev *Dataset, dir string, opts Options) (*DeltaResult, error) {
	if prev == nil || prev.state == nil {
		return nil, ErrNoDeltaState
	}
	if !prev.state.opts.deltaCompatible(opts) {
		return nil, fmt.Errorf("prefix2org: delta options incompatible with previous build (pipeline-shaping options differ, or JPNIC live enrichment requested)")
	}
	return rebuildDir(ctx, obs.NewTrace("delta"), prev, dir, opts)
}

// rebuildDir builds from a data directory against prev, or from nothing
// when prev is nil. It decides which sources to read — those with a file
// whose hash differs from the manifest prev was built from; all of them
// without a prev — and hands their load jobs to rebuild.
func rebuildDir(ctx context.Context, tr *obs.Trace, prev *Dataset, dir string, opts Options) (*DeltaResult, error) {
	var old *buildState
	if prev != nil {
		old = prev.state
	}
	next := newBuildState(old, opts)
	var changed []string
	if old != nil || opts.Incremental {
		// The manifest is hashed before the files it describes are read. A
		// file replaced while the build runs is then recorded under the hash
		// of what it was and shows up as changed in the next delta; hashed
		// after the loads, it would be recorded as current with its old
		// content parsed, and stay stale until it changed again.
		span := tr.Start("manifest")
		manifest, err := buildManifest(ctx, dir, opts.workerCount())
		span.End()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, fmt.Errorf("prefix2org: %w", err)
		}
		changed = manifest.Diff(next.manifest)
		next.manifest = manifest
		span.Add("files", int64(len(manifest.Entries)))
		span.Add("changed", int64(len(changed)))
		if old != nil && len(changed) == 0 {
			return nil, ErrNoChange
		}
	}
	loaders := dirLoaders(dir, tr, next, func(relPath string) bool {
		return old == nil || slices.Contains(changed, relPath)
	})
	var jobs []loadJob
	for _, source := range manifestDirs {
		inSource := func(relPath string) bool { return strings.HasPrefix(relPath, source+"/") }
		if old == nil || slices.ContainsFunc(changed, inSource) {
			jobs = append(jobs, loaders[source])
		}
	}
	res, err := rebuild(ctx, tr, prev, next, jobs)
	if err != nil {
		return nil, err
	}
	res.ChangedFiles = changed
	return res, nil
}

// rebuild is the one build: Build, BuildFromDir and BuildDelta all end
// here. next holds the inputs of the previous build (none, when prev is
// nil); jobs replace the ones whose source changed. rebuild then keeps
// the previous pass-1 slot of every routed prefix whose inputs are
// untouched, resolves the rest, and runs passes 2–4. A full build is the
// case where nothing was built before: every source is loaded, no prefix
// has a slot to keep, and finish has no previous state to reuse — so
// delta ≡ full holds by construction, not only by test.
func rebuild(ctx context.Context, tr *obs.Trace, prev *Dataset, next *buildState, jobs []loadJob) (*DeltaResult, error) {
	opts := next.opts
	workers := opts.workerCount()
	if err := runLoaders(ctx, tr, workers, jobs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 1: ownership resolution per routed prefix. Every shared
	// structure it touches — the frozen delegation index, the RPKI
	// repository indexes, the BGP table, and the frozen ASN clusters — is
	// read-only from here on (see ARCHITECTURE.md for the contracts).
	span := tr.Start("resolve").SetWorkers(workers)
	obs.Default().Gauge("pipeline_workers").Set(float64(workers))
	env, routed := next.env, next.routed
	// With nothing built yet the build splices against the empty state: no
	// routed prefix has a slot to keep, so no input needs diffing either.
	old := &buildState{env: env}
	var prevIdx *lpm.Index
	var oldRecs []Record
	if prev != nil {
		old, prevIdx, oldRecs = prev.state, prev.idx, prev.Records
	}
	dirty, regionIdx := dirtyRegions(old.env, env)
	recs, mapped, idxs, removed := splice(old, next, oldRecs, regionIdx)
	reused := len(routed) - len(idxs)
	if err := resolveIndices(ctx, next, idxs, recs, mapped, workers); err != nil {
		return nil, err
	}
	recs, unmapped := compactMapped(recs, mapped)
	span.Add("routed", int64(len(routed)))
	span.Add("specificity-filtered", int64(env.table.FilteredCount()))
	span.Add("dirty-regions", int64(len(dirty)))
	span.Add("affected", int64(len(idxs)))
	span.Add("reused", int64(reused))
	span.Add("removed", int64(removed))
	span.Add("mapped", int64(len(recs)))
	span.Add("unmapped", int64(unmapped))
	span.End()

	res := &DeltaResult{Affected: len(idxs), Reused: reused, Removed: removed}
	retain := prev != nil || opts.Incremental
	if !retain {
		// No later build will splice against this one, and finish reads
		// only the Records: what the loaders produced — the WHOIS runs and
		// delegation index, the BGP table, the AS clusters, the routed
		// list and its origins — is released here, so that passes 2–4 run
		// over a heap without it.
		*env, *next = resolveEnv{}, buildState{}
	}
	ds, clean, err := finish(ctx, tr, recs, unmapped, opts, old.clean, prevIdx)
	if err != nil {
		return nil, err
	}
	if retain {
		next.clean = clean
		ds.state = next
	}
	obs.Logger("pipeline").Info(tr.Name+" complete",
		"records", len(ds.Records), "clusters", len(ds.Clusters),
		"affected", res.Affected, "reused", reused, "trace", tr)
	res.Dataset = ds
	return res, nil
}

// dirtyRegions returns the covering-space regions (WHOIS entry groups,
// RPKI cert resources) whose answers differ between old and env, sorted
// and deduplicated, and the index frozen over them — nil when there are
// none. A routed prefix inside any region must be re-resolved.
func dirtyRegions(old, env *resolveEnv) ([]netip.Prefix, *lpm.Index) {
	var dirty []netip.Prefix
	if env.whois != old.whois {
		dirty = entryGroupDiff(old.whois, env.whois)
	}
	if env.repo != old.repo {
		dirty = append(dirty, certDiff(old.repo, env.repo)...)
	}
	if len(dirty) == 0 {
		return nil, nil
	}
	dirty = netx.Dedup(dirty)
	items := make([]lpm.Item, len(dirty))
	for i, p := range dirty {
		items[i] = lpm.Item{Prefix: p, Val: int32(i)}
	}
	return dirty, lpm.Freeze(items)
}

// splice lays out the pass-1 slots of next, one per routed prefix, from
// the build old whose mapped slots are oldRecs. It keeps the previous
// slot of every routed prefix that existed before and whose inputs are
// untouched, and lists in idxs the positions of everything else — newly
// routed, origin changed, origin-ASN cluster reassigned, or inside a
// region of regionIdx — for pass 1 to resolve. removed counts the
// prefixes old routed and next does not.
func splice(old, next *buildState, oldRecs []Record, regionIdx *lpm.Index) (recs []Record, mapped []bool, idxs []int, removed int) {
	env, routed, origins := next.env, next.routed, next.origins
	bgpChanged, as2orgChanged := env.table != old.env.table, env.asClusters != old.env.asClusters
	recs, mapped = make([]Record, len(routed)), make([]bool, len(routed))
	common := 0
	// Both routed lists are in canonical order (bgp.Table.Prefixes), so
	// one cursor into the previous list finds each prefix, and its origin
	// at the same position. So are the previous Records, which are the
	// previous slots, compacted in routed order and given since only the
	// base name and final cluster finish sets again. A second cursor copies
	// a kept slot from there, and no build retains its slots beside its
	// Records.
	oldIdx, oldRec := 0, 0
	for i, p := range routed {
		for oldIdx < len(old.routed) && netx.Compare(old.routed[oldIdx], p) < 0 {
			oldIdx++
		}
		hasOld := oldIdx < len(old.routed) && old.routed[oldIdx] == p
		if hasOld {
			common++
		}
		aff := !hasOld
		if !aff && bgpChanged {
			aff = old.origins[oldIdx] != origins[i]
		}
		if !aff && as2orgChanged {
			aff = old.env.asClusters.ClusterID(origins[i]) != env.asClusters.ClusterID(origins[i])
		}
		if !aff && regionIdx != nil {
			// A dirty region q affects p when q covers p (resolution of
			// p reads exactly the groups and certificates at prefixes
			// containing it); LookupPrefix finds any such q.
			_, aff = regionIdx.LookupPrefix(p)
		}
		if aff {
			idxs = append(idxs, i)
			continue
		}
		for oldRec < len(oldRecs) && netx.Compare(oldRecs[oldRec].Prefix, p) < 0 {
			oldRec++
		}
		// A prefix that was routed but has no Record was unmapped: the
		// zero slot.
		if oldRec < len(oldRecs) && oldRecs[oldRec].Prefix == p {
			recs[i], mapped[i] = oldRecs[oldRec], true
			recs[i].FinalCluster = ""
		}
	}
	return recs, mapped, idxs, len(old.routed) - common
}

// routedOrigins returns the canonical origin of each prefix of routed —
// the origins column of buildState — when table routes exactly those
// prefixes, and nil when it does not. Origin churn leaves the routed set
// alone, and then the list — canonical order included — carries over
// without being rebuilt and re-sorted from the table's map.
func routedOrigins(table *bgp.Table, routed []netip.Prefix) []uint32 {
	if table.Len()-table.FilteredCount() != len(routed) {
		return nil
	}
	origins := make([]uint32, len(routed))
	for i, p := range routed {
		o, ok := table.Origin(p)
		if !ok {
			return nil
		}
		origins[i] = o
	}
	return origins
}

// entryGroupDiff returns the prefixes whose WHOIS entry groups differ
// between two delegation indexes: groups added, removed, or with any
// field change. A routed prefix's resolution reads exactly the groups
// at prefixes covering it, so these prefixes delimit the WHOIS-affected
// region of the address space. Flatten output order is deterministic,
// so per-group slices compare element-wise.
func entryGroupDiff(og, ng *lpm.Groups[whois.Entry]) []netip.Prefix {
	var dirty []netip.Prefix
	og.Index().Walk(func(p netip.Prefix, id int32) bool {
		if !entrySlicesEqual(og.At(id), ng.Get(p)) { // Get is nil for a removed group
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

func entrySlicesEqual(a, b []whois.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Registry != b[i].Registry ||
			a[i].Status != b[i].Status || a[i].OrgName != b[i].OrgName ||
			!a[i].Updated.Equal(b[i].Updated) {
			return false
		}
	}
	return true
}

// certDiff returns the resource prefixes of every certificate added,
// removed, or changed between two repositories (both sides' resources
// for changed certs) — the address regions where ChildMostRC answers,
// and hence Record.RPKICert and the Legacy-Not-Sponsored inference, may
// differ. ROA-only changes contribute nothing: ROAs never reach
// Records.
func certDiff(oldRepo, newRepo *rpki.Repository) []netip.Prefix {
	oldBySKI := make(map[string]*rpki.Certificate, len(oldRepo.Certs))
	for i := range oldRepo.Certs {
		oldBySKI[oldRepo.Certs[i].SKI] = &oldRepo.Certs[i]
	}
	var dirty []netip.Prefix
	for i := range newRepo.Certs {
		c := &newRepo.Certs[i]
		o, ok := oldBySKI[c.SKI]
		if !ok {
			dirty = append(dirty, c.Resources...)
			continue
		}
		delete(oldBySKI, c.SKI)
		if !certsEqual(o, c) {
			dirty = append(dirty, o.Resources...)
			dirty = append(dirty, c.Resources...)
		}
	}
	for _, o := range oldBySKI {
		dirty = append(dirty, o.Resources...)
	}
	// The removed-cert loop follows map iteration; sorting erases it.
	netx.Sort(dirty)
	return dirty
}

func certsEqual(a, b *rpki.Certificate) bool {
	if a.SKI != b.SKI || a.AKI != b.AKI || a.Subject != b.Subject ||
		a.Registry != b.Registry || a.TrustAnchor != b.TrustAnchor ||
		len(a.Resources) != len(b.Resources) {
		return false
	}
	for i := range a.Resources {
		if a.Resources[i] != b.Resources[i] {
			return false
		}
	}
	return true
}
