package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"sort"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/diff"
	"github.com/prefix2org/prefix2org/internal/leasing"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/report"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// AblationResult summarizes one ablated pipeline run.
type AblationResult struct {
	Name  string
	Stats prefix2org.Stats
}

// Ablation re-runs the pipeline with each clustering signal disabled —
// the component analysis behind §6's "the 4.8% increase due to R
// clusters complements the 16.1% increase due to A clusters". Variants:
// full, no-RPKI (W+A), no-ASN (W+R), W-only, and no-name-cleaning.
func (e *Env) Ablation(ctx context.Context) (*report.Table, []AblationResult, error) {
	variants := []struct {
		name string
		opts prefix2org.Options
	}{
		{"full (W+R+A)", prefix2org.Options{}},
		{"no RPKI signal (W+A)", prefix2org.Options{DisableRPKIClusters: true}},
		{"no ASN signal (W+R)", prefix2org.Options{DisableASNClusters: true}},
		{"names only (W)", prefix2org.Options{DisableRPKIClusters: true, DisableASNClusters: true}},
		{"no name cleaning", prefix2org.Options{DisableNameCleaning: true}},
	}
	t := report.New("Ablation: contribution of each clustering signal (§6 component analysis)",
		"Variant", "Final Clusters", "Multi-Name Clusters", "% v4 prefixes multi-name", "% v4 space multi-name")
	var out []AblationResult
	for _, v := range variants {
		ds, err := prefix2org.BuildFromDir(ctx, e.Dir, v.opts)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		s := ds.Stats
		t.Row(v.name, s.FinalClusters, s.MultiNameClusters, s.PctV4InMultiName, s.PctV4SpaceInMultiName)
		out = append(out, AblationResult{Name: v.name, Stats: s})
	}
	return t, out, nil
}

// Leasing runs the §9 leasing-inference extension.
func (e *Env) Leasing(topN int) (*report.Table, []leasing.Candidate, error) {
	cands, err := leasing.Detect(e.DS, leasing.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Leasing inference (§9 extension): clusters with the lessor fingerprint",
		"Organization", "v4 Prefixes", "v4 Addresses", "Distinct Origins", "Foreign-Origin Share", "Sub-Delegated Share")
	for i := range cands {
		if i >= topN {
			break
		}
		c := &cands[i]
		name := c.Cluster.BaseName
		if len(c.Cluster.OwnerNames) > 0 {
			name = c.Cluster.OwnerNames[0]
		}
		t.Row(name, c.V4Prefixes, c.V4Addresses(), c.DistinctOrigins, c.ForeignOriginShare, c.SubDelegatedShare)
	}
	return t, cands, nil
}

// R2Row is one allocation type's empirical sub-delegation behaviour.
type R2Row struct {
	Registry   string
	Type       string
	GrantsR2   bool
	Records    int
	WithSubs   int // records with at least one more-specific record below
	SubRecords int // total more-specific records below
}

// PctWithSubs returns the share of the type's records that re-delegate.
func (r *R2Row) PctWithSubs() float64 {
	if r.Records == 0 {
		return 0
	}
	return 100 * float64(r.WithSubs) / float64(r.Records)
}

// R2Verification reproduces §5.1's data-driven check of the
// sub-delegation right: build prefix trees from the WHOIS records and
// measure, per allocation type, how often blocks of that type have
// further re-delegations registered beneath them. Types without R2
// (Assign-flavoured) must re-delegate rarely; Allocation-flavoured types
// should dominate the re-delegating population.
func (e *Env) R2Verification(ctx context.Context) (*report.Table, []R2Row, error) {
	flat, err := whois.LoadDir(ctx, e.Dir, whois.LoadOptions{})
	if err != nil {
		return nil, nil, err
	}
	groups := flat.Groups()
	rows := map[string]*R2Row{}
	for i := range flat.Entries() {
		en := &flat.Entries()[i]
		ty, err := flat.Type(en)
		if err != nil {
			continue
		}
		key := string(ty.Registry) + "/" + ty.Name
		row := rows[key]
		if row == nil {
			row = &R2Row{Registry: string(ty.Registry), Type: ty.Name, GrantsR2: ty.Rights.SubDelegate}
			rows[key] = row
		}
		row.Records++
		subs := 0
		p := en.Prefix()
		groups.Index().WalkCovered(p, func(sub netip.Prefix, id int32) bool {
			if sub != p {
				subs += len(groups.At(id))
			}
			return true
		})
		if subs > 0 {
			row.WithSubs++
			row.SubRecords += subs
		}
	}
	var out []R2Row
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Registry != out[j].Registry {
			return out[i].Registry < out[j].Registry
		}
		return out[i].Type < out[j].Type
	})
	t := report.New("§5.1 data-driven R2 check: re-delegation frequency per allocation type",
		"Registry", "Allocation Type", "Grants R2", "Records", "% with sub-delegations")
	for i := range out {
		r := &out[i]
		t.Row(r.Registry, r.Type, r.GrantsR2, r.Records, r.PctWithSubs())
	}
	return t, out, nil
}

// LegacyRow is one registry zone's legacy-space accounting.
type LegacyRow struct {
	RIR            string
	V4Prefixes     int
	LegacyPrefixes int // Direct Owner type Legacy/Allocation-Legacy or legacy-labelled
	NoRPKIRight    int // legacy without an RIR agreement (modified types)
}

// PctLegacy returns the zone's legacy share of routed v4 prefixes.
func (r *LegacyRow) PctLegacy() float64 {
	if r.V4Prefixes == 0 {
		return 0
	}
	return 100 * float64(r.LegacyPrefixes) / float64(r.V4Prefixes)
}

// PctNoRight returns the share of the zone's legacy prefixes whose holder
// cannot issue RPKI certificates (no agreement).
func (r *LegacyRow) PctNoRight() float64 {
	if r.LegacyPrefixes == 0 {
		return 0
	}
	return 100 * float64(r.NoRPKIRight) / float64(r.LegacyPrefixes)
}

// LegacyStats reproduces Appendix B.1's legacy-space accounting: per RIR
// zone, how much routed IPv4 space is legacy and how much of that lacks
// the RPKI-issuance right (ARIN holders without a registry services
// agreement; RIPE legacy outside member/sponsoring accounts — the
// prefixes Prefix2Org marks with its two modified allocation types).
func (e *Env) LegacyStats() (*report.Table, []LegacyRow, error) {
	rows := map[string]*LegacyRow{}
	for i := range e.DS.Records {
		r := &e.DS.Records[i]
		if !r.Prefix.Addr().Is4() {
			continue
		}
		row := rows[r.RIR]
		if row == nil {
			row = &LegacyRow{RIR: r.RIR}
			rows[r.RIR] = row
		}
		row.V4Prefixes++
		switch r.DOType {
		case "Legacy", "Legacy-Not-Sponsored", "Allocation-Legacy":
			row.LegacyPrefixes++
			if r.DOType != "Legacy" {
				row.NoRPKIRight++
			}
		}
	}
	var out []LegacyRow
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RIR < out[j].RIR })
	t := report.New("Appendix B.1: legacy address space per registry zone (routed IPv4)",
		"RIR", "v4 Prefixes", "Legacy", "% legacy", "Legacy w/o RPKI right", "% of legacy w/o right")
	for i := range out {
		r := &out[i]
		t.Row(r.RIR, r.V4Prefixes, r.LegacyPrefixes, r.PctLegacy(), r.NoRPKIRight, r.PctNoRight())
	}
	return t, out, nil
}

// CrossCheck verifies inter-substrate consistency of a data directory the
// way a careful consumer of real snapshots would:
//
//   - every non-trust-anchor certificate resource must be delegated
//     address space per the RIR's delegated-statistics file;
//   - every ROA must sit inside some certificate's resources (already
//     enforced at repository build, re-verified here);
//   - every routed prefix must fall inside some registry's delegated
//     space.
//
// It returns the number of verified facts per category.
func (e *Env) CrossCheck(ctx context.Context) (certResources, roas, routed int, err error) {
	files, err := delegated.LoadDir(ctx, e.Dir)
	if err != nil {
		return 0, 0, 0, err
	}
	var blocks []lpm.Item
	for _, f := range files {
		for i := range f.Records {
			ps, err := f.Records[i].Prefixes()
			if err != nil {
				return 0, 0, 0, err
			}
			for _, p := range ps {
				blocks = append(blocks, lpm.Item{Prefix: p})
			}
		}
	}
	delegatedSpace := lpm.Freeze(blocks)
	coveredByDelegated := func(p netip.Prefix) bool {
		_, ok := delegatedSpace.LookupPrefix(p)
		return ok
	}
	coversDelegated := func(p netip.Prefix) bool {
		found := false
		delegatedSpace.WalkCovered(p, func(netip.Prefix, int32) bool {
			found = true
			return false
		})
		return found
	}
	for _, c := range e.Repo.Certs {
		if c.TrustAnchor {
			continue
		}
		for _, res := range c.Resources {
			// A member certificate's resource sits inside delegated
			// space; an NIR certificate's resource is the aggregate pool
			// covering its members' delegations. Pool-sized resources
			// (/8 v4, /16 v6 or coarser — never member delegations, per
			// the footnote-2 bound) are registry infrastructure and pass
			// even when the zone has no members yet.
			isPool := (res.Addr().Is4() && res.Bits() <= 8) || (!res.Addr().Is4() && res.Bits() <= 16)
			if !isPool && !coveredByDelegated(res) && !coversDelegated(res) {
				return 0, 0, 0, fmt.Errorf("experiments: certificate %s resource %s unrelated to delegated space", c.SKI, res)
			}
			certResources++
		}
	}
	var resources []lpm.Item
	for _, c := range e.Repo.Certs {
		for _, res := range c.Resources {
			resources = append(resources, lpm.Item{Prefix: res})
		}
	}
	certified := lpm.Freeze(resources)
	for _, roa := range e.Repo.ROAs {
		if _, ok := certified.LookupPrefix(roa.Prefix); !ok {
			return 0, 0, 0, fmt.Errorf("experiments: ROA %s outside all certificates", roa.Prefix)
		}
		roas++
	}
	for i := range e.DS.Records {
		if !coveredByDelegated(e.DS.Records[i].Prefix) {
			return 0, 0, 0, fmt.Errorf("experiments: routed %s not inside delegated space", e.DS.Records[i].Prefix)
		}
		routed++
	}
	return certResources, roas, routed, nil
}

// Longitudinal generates a quarterly snapshot series by evolving the
// environment's world, rebuilds the dataset at each epoch, and diffs
// consecutive snapshots — the §10 workflow as an experiment. It requires
// the Env to have been created by Setup (the world must be attached).
func (e *Env) Longitudinal(ctx context.Context, epochs int) (*report.Table, []*diff.Report, error) {
	if e.World == nil {
		return nil, nil, fmt.Errorf("experiments: longitudinal needs a generated world (use Setup)")
	}
	if epochs < 2 {
		epochs = 2
	}
	t := report.New("§10 longitudinal: quarterly snapshot dynamics",
		"Epoch", "Routed Prefixes", "Added", "Removed", "Transfers", "Origin Migrations", "Newly RPKI-covered")
	prev := e.DS
	t.Row("t0", len(prev.Records), "-", "-", "-", "-", "-")
	world := e.World
	var reports []*diff.Report
	for ep := 1; ep < epochs; ep++ {
		var err error
		world, err = world.Evolve(synth.EvolveOptions{
			Seed:           int64(1000 + ep),
			Transfers:      8,
			NewDelegations: 10,
			NewAdopters:    12,
			Acquisitions:   3,
			MonthsLater:    3,
		})
		if err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp("", "p2o-epoch")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		if err := world.WriteDir(dir); err != nil {
			return nil, nil, err
		}
		cur, err := prefix2org.BuildFromDir(ctx, dir, prefix2org.Options{})
		if err != nil {
			return nil, nil, err
		}
		rep, err := diff.Compare(prev, cur)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, rep)
		t.Row(fmt.Sprintf("t%d", ep), len(cur.Records), len(rep.Added), len(rep.Removed),
			len(rep.Transfers), len(rep.OriginChanges), rep.RPKINewlyCovered)
		prev = cur
	}
	return t, reports, nil
}
