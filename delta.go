package prefix2org

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"github.com/prefix2org/prefix2org/internal/as2org"
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

// DeltaResult is the outcome of an incremental rebuild.
type DeltaResult struct {
	// Dataset is the new snapshot, byte-identical to what a full
	// BuildFromDir over the same directory would produce. It carries
	// fresh delta state, so deltas chain.
	Dataset *Dataset
	// Repo is the RPKI repository backing the Dataset — freshly parsed
	// when an rpki/ file changed, otherwise the previous build's
	// repository, so snapshot plumbing can reuse it without reloading.
	Repo *rpki.Repository
	// ChangedFiles lists the manifest-relative paths that differed.
	ChangedFiles []string
	// Affected is the number of routed prefixes re-resolved; Reused the
	// number spliced unchanged from the previous pass-1 output; Removed
	// the number of previously routed prefixes no longer in the table.
	Affected, Reused, Removed int
	// RPKIChanged reports whether any rpki/ input changed — the signal
	// that VRPs (and hence the RTR serial) may differ even when no
	// Record does.
	RPKIChanged bool
}

// BuildDelta incrementally rebuilds the Dataset for dir against a
// previous Incremental build: it hashes the per-source input manifest,
// re-parses only the files that changed, computes the affected routed
// prefix set (prefixes whose covering WHOIS chain, origin, origin-ASN
// cluster, or covering RPKI certificates changed), re-runs the
// per-prefix resolution pass over that set only, and splices the reused
// pass-1 slots into a new snapshot. Passes 2–4 then flow through the
// same finish path as a full build, so the result is byte-identical to
// BuildFromDir over the same directory — the invariant the synth
// evolution tests assert on every step.
//
// Any error leaves prev untouched; callers fall back to a full rebuild.
// ErrNoChange means there is nothing to do at all.
func BuildDelta(ctx context.Context, prev *Dataset, dir string, opts Options) (*DeltaResult, error) {
	if prev == nil || prev.state == nil {
		return nil, ErrNoDeltaState
	}
	state := prev.state
	if !state.opts.deltaCompatible(opts) {
		return nil, fmt.Errorf("prefix2org: delta options incompatible with previous build (pipeline-shaping options differ, or JPNIC live enrichment requested)")
	}
	tr := obs.NewTrace("delta")
	var manifest *Manifest
	var changed []string
	// One job: the runner is here for its span and error contract.
	if err := runLoaders(ctx, tr, 1, []loadJob{{"delta-manifest", func(ctx context.Context, span *obs.Span) error {
		var err error
		if manifest, err = BuildManifest(ctx, dir); err != nil {
			return err
		}
		changed = manifest.Diff(state.manifest)
		span.Add("files", int64(len(manifest.Entries)))
		span.Add("changed", int64(len(changed)))
		return nil
	}}}); err != nil {
		return nil, err
	}
	if len(changed) == 0 {
		return nil, ErrNoChange
	}

	// Reload only the changed sources, concurrently, through the runner
	// BuildFromDir loads every source with; everything else is carried
	// over from the previous build's retained state. Each job below is
	// the single writer of the variables named beside it and reads only
	// prev's (immutable) state besides.
	var (
		// delta-whois
		src        = state.src
		arinLegacy = state.arinLegacy
		groups     = state.env.whois
		whoisDirty []netip.Prefix
		// delta-bgp
		table  = state.env.table
		routed = state.routed
		// delta-rpki
		repo      = state.env.repo
		rpkiDirty []netip.Prefix
		// delta-as2org
		asData     = state.asData
		asClusters = state.env.asClusters
	)
	changedSet := make(map[string]bool, len(changed))
	loaders := map[string]loadJob{
		"whois": {"delta-whois", func(ctx context.Context, span *obs.Span) error {
			var db *whois.Database
			var err error
			db, src, err = whois.LoadDirSources(ctx, dir, whois.LoadOptions{Workers: opts.Workers}, state.src,
				func(rel string) bool { return changedSet[rel] })
			if err != nil {
				return fmt.Errorf("prefix2org: load whois: %w", err)
			}
			if changedSet["whois/"+whois.ARINLegacyFile] {
				if arinLegacy, err = loadARINLegacy(dir); err != nil {
					return err
				}
			}
			entries, _ := db.FlattenWithStats()
			markARINLegacy(entries, arinLegacy)
			groups = groupEntries(entries)
			whoisDirty = entryGroupDiff(state.env.whois, groups)
			span.Add("entries", int64(len(entries)))
			span.Add("dirty-regions", int64(len(whoisDirty)))
			return nil
		}},
		"bgp": {"delta-bgp", func(ctx context.Context, span *obs.Span) error {
			var err error
			if table, err = bgp.LoadDir(ctx, dir); err != nil {
				return fmt.Errorf("prefix2org: load bgp: %w", err)
			}
			if !sameRouted(table, state.routed) {
				routed = table.Prefixes()
			}
			span.Add("prefixes", int64(len(routed)))
			return nil
		}},
		"rpki": {"delta-rpki", func(ctx context.Context, span *obs.Span) error {
			var err error
			if repo, err = rpki.LoadDir(ctx, dir); err != nil {
				return fmt.Errorf("prefix2org: load rpki: %w", err)
			}
			rpkiDirty = certDiff(state.env.repo, repo)
			span.Add("certs", int64(len(repo.Certs)))
			span.Add("dirty-regions", int64(len(rpkiDirty)))
			return nil
		}},
		"as2org": {"delta-as2org", func(ctx context.Context, span *obs.Span) error {
			var err error
			if asData, err = as2org.LoadDir(ctx, dir); err != nil {
				return fmt.Errorf("prefix2org: load as2org: %w", err)
			}
			asClusters = asData.BuildClusters()
			span.Add("ases", int64(len(asData.ASes)))
			return nil
		}},
		"delegated": {"delta-delegated", func(ctx context.Context, span *obs.Span) error {
			return verifyDelegated(ctx, dir, span)
		}},
	}
	changedSource := make(map[string]bool, len(loaders))
	for _, p := range changed {
		changedSet[p] = true
		source, _, _ := strings.Cut(p, "/")
		if _, ok := loaders[source]; !ok {
			// Defensive: the manifest only walks the known source
			// subdirectories, so this cannot fire unless the two drift
			// apart. Erroring makes the caller run a full rebuild.
			return nil, fmt.Errorf("prefix2org: delta: changed file %q outside known sources", p)
		}
		changedSource[source] = true
	}
	var jobs []loadJob
	for _, source := range manifestDirs {
		if changedSource[source] {
			jobs = append(jobs, loaders[source])
		}
	}
	if err := runLoaders(ctx, tr, opts.workerCount(), jobs); err != nil {
		return nil, err
	}
	bgpChanged, as2orgChanged, rpkiChanged := changedSource["bgp"], changedSource["as2org"], changedSource["rpki"]
	// dirty is the covering-space regions (WHOIS entry groups, RPKI cert
	// resources) whose answers changed, merged here, after the join, in
	// fixed order — a routed prefix inside any region must be re-resolved.
	dirty := append(whoisDirty, rpkiDirty...)

	// Splice: keep the previous pass-1 slot for every routed prefix that
	// existed before and whose inputs are untouched; everything else —
	// newly routed, origin changed, origin-ASN cluster reassigned, or
	// inside a dirty WHOIS/RPKI region — is re-resolved.
	env := &resolveEnv{whois: groups, table: table, repo: repo, asClusters: asClusters}
	workers := opts.workerCount()
	span := tr.Start("resolve").SetWorkers(workers)
	var regionIdx *lpm.Index
	if len(dirty) > 0 {
		dirty = netx.Dedup(dirty)
		items := make([]lpm.Item, len(dirty))
		for i, p := range dirty {
			items[i] = lpm.Item{Prefix: p, Val: int32(i)}
		}
		regionIdx = lpm.Freeze(items)
	}
	slots := make([]resolvedRec, len(routed))
	idxs := make([]int, 0)
	reused, common := 0, 0
	// Both routed lists are in canonical order (bgp.Table.Prefixes), so
	// one cursor into the previous list finds each prefix's old slot.
	oldIdx := 0
	for i, p := range routed {
		for oldIdx < len(state.routed) && netx.Compare(state.routed[oldIdx], p) < 0 {
			oldIdx++
		}
		hasOld := oldIdx < len(state.routed) && state.routed[oldIdx] == p
		if hasOld {
			common++
		}
		aff := !hasOld
		if !aff && bgpChanged {
			oldO, oldHas := state.env.table.Origin(p)
			newO, newHas := table.Origin(p)
			aff = oldHas != newHas || oldO != newO
		}
		if !aff && as2orgChanged {
			if origin, has := table.Origin(p); has &&
				state.env.asClusters.ClusterID(origin) != asClusters.ClusterID(origin) {
				aff = true
			}
		}
		if !aff && regionIdx != nil {
			// A dirty region q affects p when q covers p (resolution of
			// p reads exactly the groups and certificates at prefixes
			// containing it); LookupPrefix finds any such q.
			if _, ok := regionIdx.LookupPrefix(p); ok {
				aff = true
			}
		}
		if aff {
			idxs = append(idxs, i)
			continue
		}
		slots[i] = state.slots[oldIdx]
		reused++
	}
	removed := len(state.routed) - common
	if err := resolveIndices(ctx, env, routed, idxs, slots, workers); err != nil {
		return nil, err
	}
	unmapped := countUnmapped(slots)
	span.Add("routed", int64(len(routed)))
	span.Add("affected", int64(len(idxs)))
	span.Add("reused", int64(reused))
	span.Add("removed", int64(removed))
	span.Add("mapped", int64(len(slots)-unmapped))
	span.Add("unmapped", int64(unmapped))
	span.End()

	ds, clean, err := finish(ctx, tr, slots, unmapped, opts, state.clean, prev.idx)
	if err != nil {
		return nil, err
	}
	ds.state = &buildState{
		opts:       opts,
		manifest:   manifest,
		src:        src,
		arinLegacy: arinLegacy,
		env:        env,
		asData:     asData,
		routed:     routed,
		slots:      slots,
		clean:      clean,
	}
	obs.Logger("pipeline").Info("delta rebuild complete",
		"records", len(ds.Records), "clusters", len(ds.Clusters),
		"changed_files", len(changed), "affected", len(idxs), "reused", reused,
		"trace", tr)
	return &DeltaResult{
		Dataset:      ds,
		Repo:         repo,
		ChangedFiles: changed,
		Affected:     len(idxs),
		Reused:       reused,
		Removed:      removed,
		RPKIChanged:  rpkiChanged,
	}, nil
}

// sameRouted reports whether table routes exactly the prefixes of routed,
// a previous table's Prefixes list. Origin churn leaves the routed set
// alone, and then the list — canonical order included — carries over
// without being rebuilt and re-sorted from the table's map.
func sameRouted(table *bgp.Table, routed []netip.Prefix) bool {
	if table.Len()-table.FilteredCount() != len(routed) {
		return false
	}
	for _, p := range routed {
		if _, ok := table.Origin(p); !ok {
			return false
		}
	}
	return true
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
// Records; they surface through DeltaResult.RPKIChanged instead.
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
