// Package experiments regenerates every table and figure of the paper's
// evaluation from a data directory (normally a synthetic world produced
// by cmd/p2o-synth). It is shared by the cmd/p2o-experiments harness and
// the repository's benchmarks.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// Internet, not the authors' September 2024 snapshots — but every
// comparison's direction and rough magnitude is expected to hold; see
// DESIGN.md §3 for the per-experiment shape expectations and
// EXPERIMENTS.md for recorded paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/casestudy"
	"github.com/prefix2org/prefix2org/internal/report"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/validate"
)

// Env bundles everything an experiment needs: the generated world, its
// serialized data directory, and the built dataset.
type Env struct {
	World *synth.World
	Dir   string
	DS    *prefix2org.Dataset
	Repo  *rpki.Repository
	ASD   *as2org.Dataset
	Truth *synth.Truth
}

// Setup generates a world with cfg, writes it under dir (creating it),
// and runs the full pipeline on the serialized data. The context
// governs the whole build and every corpus load.
func Setup(ctx context.Context, cfg synth.Config, dir string) (*Env, error) {
	w, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.WriteDir(dir); err != nil {
		return nil, err
	}
	return Load(ctx, dir, w)
}

// Load builds the pipeline over an existing data directory. world may be
// nil when only the dataset-side experiments are wanted; validation and
// case studies load the ground truth from the directory.
func Load(ctx context.Context, dir string, world *synth.World) (*Env, error) {
	ds, err := prefix2org.BuildFromDir(ctx, dir, prefix2org.Options{})
	if err != nil {
		return nil, err
	}
	repo, err := rpki.LoadDir(ctx, dir)
	if err != nil {
		return nil, err
	}
	asd, err := as2org.LoadDir(ctx, dir)
	if err != nil {
		return nil, err
	}
	truth, err := synth.LoadTruth(ctx, dir)
	if err != nil {
		return nil, err
	}
	return &Env{World: world, Dir: dir, DS: ds, Repo: repo, ASD: asd, Truth: truth}, nil
}

// Table1 renders the allocation-type → ownership-level mapping.
func Table1() *report.Table {
	t := report.New("Table 1: Allocation type values used across five RIRs",
		"RIR", "Allocation Type", "Level", "Family")
	for _, rir := range alloc.RIRs {
		for _, ty := range alloc.All(rir) {
			if ty.Modified {
				continue
			}
			fam := "both"
			if ty.V4Only {
				fam = "IPv4 only"
			}
			if ty.V6Only {
				fam = "IPv6 only"
			}
			t.Row(rir, ty.Name, ty.Level.String(), fam)
		}
	}
	return t
}

// Table2 renders the string-cleaning step counts.
func (e *Env) Table2() *report.Table {
	sc := e.DS.Stats.NameCleaning
	t := report.New("Table 2: unique organization names after each cleaning step",
		"Step", "# unique names")
	t.Row("Original", sc.Original)
	t.Row("Basic Cleaning", sc.Basic)
	t.Row("Regex drop", sc.Regex)
	t.Row("Corporate words drop", sc.Corporate)
	t.Row("Frequent words drop", sc.Frequent)
	t.Row("Geographic words drop", sc.Geographic)
	t.Row("Refilling words with length <= 3", sc.Refilled)
	return t
}

// Table2Reduction returns the relative reduction in unique names achieved
// by the cleaning pipeline (paper: ~12%).
func (e *Env) Table2Reduction() float64 {
	sc := e.DS.Stats.NameCleaning
	if sc.Basic == 0 {
		return 0
	}
	return 100 * float64(sc.Basic-sc.Refilled) / float64(sc.Basic)
}

// Table3 renders an aggregation excerpt in the shape of the paper's
// Verizon/Fastly table: the largest multi-name cluster and a base-name
// collision that stayed split.
func (e *Env) Table3() *report.Table {
	t := report.New("Table 3: aggregation excerpt (largest multi-name cluster + a same-base-name split)",
		"Prefix", "Direct Owner", "Base Name", "RPKI Cluster", "ASN Cluster", "Final Cluster")
	// Largest multi-name cluster.
	var best *prefix2org.Cluster
	for _, c := range e.DS.Clusters {
		if c.MultiName() && (best == nil || len(c.OwnerNames) > len(best.OwnerNames)) {
			best = c
		}
	}
	addRows := func(c *prefix2org.Cluster, maxRows int) {
		n := 0
		seenOwner := map[string]bool{}
		for _, p := range c.Prefixes {
			rec, ok := e.DS.Lookup(p)
			if !ok {
				continue
			}
			// Show each distinct owner name at most once for brevity.
			if seenOwner[rec.DirectOwner] {
				continue
			}
			seenOwner[rec.DirectOwner] = true
			t.Row(p, rec.DirectOwner, rec.BaseName, short(rec.RPKICert), rec.ASNCluster, c.ID)
			n++
			if n >= maxRows {
				return
			}
		}
	}
	if best != nil {
		addRows(best, 5)
	}
	// A base name shared by more than one final cluster (the Fastly split).
	byBase := map[string][]*prefix2org.Cluster{}
	for _, c := range e.DS.Clusters {
		byBase[c.BaseName] = append(byBase[c.BaseName], c)
	}
	for _, cs := range byBase {
		if len(cs) > 1 {
			addRows(cs[0], 1)
			addRows(cs[1], 1)
			break
		}
	}
	return t
}

func short(ski string) string {
	if len(ski) > 8 {
		return ski[:8]
	}
	return ski
}

// Table4 renders the dataset key metrics.
func (e *Env) Table4() *report.Table {
	s := e.DS.Stats
	t := report.New("Table 4: Prefix2Org dataset key metrics", "Metric", "Count")
	t.Row("IPv4 Prefixes", s.IPv4Prefixes)
	t.Row("IPv6 Prefixes", s.IPv6Prefixes)
	t.Row("Direct Owners", s.DirectOwners)
	t.Row("Delegated Customers", s.DelegatedCustomers)
	t.Row("Only-Customer organizations", s.OnlyCustomers)
	t.Row("Base Names", s.BaseNames)
	t.Row("Origin ASNs", s.OriginASNs)
	t.Row("Prefix RPKI Groups", s.PrefixRPKIGroups)
	t.Row("Prefix ASN Groups", s.PrefixASNGroups)
	t.Row("Base Clusters", s.BaseClusters)
	t.Row("Final Clusters", s.FinalClusters)
	t.Row("Clusters with multiple org names", s.MultiNameClusters)
	t.Row("% IPv4 prefixes in multi-org-name clusters", s.PctV4InMultiName)
	t.Row("% IPv6 prefixes in multi-org-name clusters", s.PctV6InMultiName)
	t.Row("% IPv4 addr space in multi-org-name clusters", s.PctV4SpaceInMultiName)
	t.Row("% IPv4 prefixes with distinct Delegated Customer", s.PctV4DistinctDC)
	t.Row("% IPv6 prefixes with distinct Delegated Customer", s.PctV6DistinctDC)
	t.Row("% IPv4 prefixes in RPKI Resource Certificates", s.PctV4InRPKI)
	t.Row("% IPv6 prefixes in RPKI Resource Certificates", s.PctV6InRPKI)
	return t
}

// validationTable renders one of Tables 5/6 (with the FP column, i.e. the
// appendix Tables 13/14 layout).
func (e *Env) validationTable(v6 bool) (*report.Table, *validate.Report, error) {
	fam, tno := "IPv4", "5/13"
	if v6 {
		fam, tno = "IPv6", "6/14"
	}
	t := report.New(fmt.Sprintf("Table %s: validation of %s prefixes against ground-truth IP range lists", tno, fam),
		"Organization", "True", "Pred", "TP", "FP", "FN", "Precision", "Recall", "CompleteList")
	rep, err := validate.Evaluate(e.DS, e.Truth, synth.GroupValidation, v6)
	if err != nil {
		return nil, nil, err
	}
	// Append the small-org cohorts the way Table 5 folds them in. The
	// cohorts' per-org median recall is the §7.2 statistic (paper: 100%).
	for _, group := range []string{synth.GroupInternet2, synth.GroupEmail} {
		sub, err := validate.Evaluate(e.DS, e.Truth, group, v6)
		if err != nil {
			return nil, nil, err
		}
		if len(sub.Rows) == 0 {
			continue
		}
		agg := sub.Total
		agg.Name = fmt.Sprintf("%s-cohort (median recall %.1f%%)", group, sub.MedianRecall())
		agg.Complete = true
		rep.Rows = append(rep.Rows, agg)
		rep.Total.True += agg.True
		rep.Total.Pred += agg.Pred
		rep.Total.TP += agg.TP
		rep.Total.FP += agg.FP
		rep.Total.FN += agg.FN
	}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		t.Row(r.Name, r.True, r.Pred, r.TP, r.FP, r.FN, r.Precision(), r.Recall(), r.Complete)
	}
	tot := rep.Total
	t.Row("Total", tot.True, tot.Pred, tot.TP, tot.FP, tot.FN, tot.Precision(), tot.Recall(), "")
	return t, rep, nil
}

// Table5 is the IPv4 validation (and appendix Table 13).
func (e *Env) Table5() (*report.Table, *validate.Report, error) { return e.validationTable(false) }

// Table6 is the IPv6 validation (and appendix Table 14).
func (e *Env) Table6() (*report.Table, *validate.Report, error) { return e.validationTable(true) }

// Table7 renders the AS-centric vs prefix-centric ROA coverage rows.
func (e *Env) Table7(minPrefixes, topN int) (*report.Table, []casestudy.ROARow, error) {
	rows, err := casestudy.ROACoverage(e.DS, e.Repo, e.ASD, minPrefixes)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Table 7: ASNs with disparity between own-prefix and origin-prefix ROA coverage",
		"Origin ASN", "Organization", "Own Prefix ROA %", "Origin Prefix ROA %", "Own #", "Origin #")
	for i, r := range rows {
		if i >= topN {
			break
		}
		t.Row(r.ASN, r.OrgName, r.OwnPct(), r.OriginPct(), r.OwnCount, r.OriginCount)
	}
	return t, rows, nil
}

// Tables8to12 renders the per-RIR rights matrices.
func Tables8to12() []*report.Table {
	nums := map[alloc.Registry]int{alloc.ARIN: 8, alloc.LACNIC: 9, alloc.APNIC: 10, alloc.RIPE: 11, alloc.AFRINIC: 12}
	order := []alloc.Registry{alloc.ARIN, alloc.LACNIC, alloc.APNIC, alloc.RIPE, alloc.AFRINIC}
	var out []*report.Table
	for _, rir := range order {
		t := report.New(fmt.Sprintf("Table %d: allocation types and rights — %s", nums[rir], rir),
			"Allocation Type", "Change Upstream (R1)", "Sub-delegate (R2)", "Issue ROAs (R3)", "Level", "Notes")
		for _, ty := range alloc.All(rir) {
			notes := ""
			if ty.V4Only {
				notes = "IPv4 only"
			}
			if ty.V6Only {
				notes = "IPv6 only"
			}
			if ty.Modified {
				if notes != "" {
					notes += "; "
				}
				notes += "modified type in Prefix2Org"
			}
			t.Row(ty.Name, mark(ty.Rights.ProviderIndependent), mark(ty.Rights.SubDelegate),
				mark(ty.Rights.IssueRPKI), ty.Level.String(), notes)
		}
		out = append(out, t)
	}
	return out
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// FigureData carries one figure's series plus its harness summary values.
type FigureData struct {
	Series *report.Series
	// Final cumulative values at the top-100 mark for each method.
	P2O, Whois, AS2Org float64
}

// Figure4 computes the cumulative fraction of routed IPv4 address space
// held by the top-N clusters under the three methods.
func (e *Env) Figure4(topN int) *FigureData {
	total := e.DS.TotalV4Space()
	s := report.NewSeries(
		fmt.Sprintf("Figure 4: cumulative fraction of routed IPv4 space, top %d clusters", topN),
		"rank", "prefix2org", "whois_orgname", "as2org_sibling")
	p2o := e.DS.TopClustersBySpace(topN)
	whois := e.DS.WhoisNameClusters()
	as2 := e.DS.AS2OrgClusters()
	var cp, cw, ca float64
	fd := &FigureData{Series: s}
	for i := 0; i < topN; i++ {
		if i < len(p2o) {
			cp += p2o[i].V4Space
		}
		if i < len(whois) {
			cw += whois[i].V4Space
		}
		if i < len(as2) {
			ca += as2[i].V4Space
		}
		s.Point(float64(i+1), cp/total, cw/total, ca/total)
	}
	fd.P2O, fd.Whois, fd.AS2Org = cp/total, cw/total, ca/total
	return fd
}

// Figure5 computes the cumulative number of distinct WHOIS organization
// names in the top-N clusters under the three methods.
func (e *Env) Figure5(topN int) *FigureData {
	s := report.NewSeries(
		fmt.Sprintf("Figure 5: cumulative unique prefix-owner names, top %d clusters", topN),
		"rank", "prefix2org", "whois_orgname", "as2org_sibling")
	p2o := e.DS.TopClustersBySpace(topN)
	whois := e.DS.WhoisNameClusters()
	as2 := e.DS.AS2OrgClusters()
	var cp, cw, ca float64
	fd := &FigureData{Series: s}
	for i := 0; i < topN; i++ {
		if i < len(p2o) {
			cp += float64(p2o[i].NameCount)
		}
		if i < len(whois) {
			cw += float64(whois[i].NameCount)
		}
		if i < len(as2) {
			ca += float64(as2[i].NameCount)
		}
		s.Point(float64(i+1), cp, cw, ca)
	}
	fd.P2O, fd.Whois, fd.AS2Org = cp, cw, ca
	return fd
}

// Case81 runs the organizations-without-ASN case study.
func (e *Env) Case81(topN int) (*report.Table, *casestudy.NoASNReport, error) {
	rep, err := casestudy.OrgsWithoutASN(e.DS, e.ASD, topN)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Case study 8.1: largest holders of routed space without an ASN",
		"Organization", "IPv4 Prefixes", "IPv4 Addresses", "IPv6 Prefixes", "Originating ASNs", "Has Customers")
	for _, o := range rep.Top {
		name := o.Cluster.BaseName
		if len(o.Cluster.OwnerNames) > 0 {
			name = o.Cluster.OwnerNames[0]
		}
		t.Row(name, o.V4Prefixes, o.V4Addresses, o.V6Prefixes, o.OriginASNs, o.HasCustomers)
	}
	return t, rep, nil
}
