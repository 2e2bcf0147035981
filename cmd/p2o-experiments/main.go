// Command p2o-experiments regenerates every table and figure of the
// paper's evaluation over a synthetic world.
//
// Usage:
//
//	p2o-experiments [-data DIR] [-orgs N] [-seed S] [-only ID] [-top N]
//
// With no -data the world is generated into a temporary directory. -only
// selects a single experiment: one of 1..12 (tables), f4, f5 (figures),
// 8.1 (case study), ablation, leasing; default runs everything in paper
// order plus the extensions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/prefix2org/prefix2org/internal/experiments"
	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/report"
	"github.com/prefix2org/prefix2org/internal/synth"
)

func main() {
	var (
		dataDir = flag.String("data", "", "data directory (generated if empty)")
		orgs    = flag.Int("orgs", synth.DefaultConfig().NumOrgs, "number of organizations in the synthetic world")
		seed    = flag.Int64("seed", synth.DefaultConfig().Seed, "world generation seed")
		only    = flag.String("only", "", "run one experiment: 1..12, f4, f5, 8.1, ablation, leasing, r2, legacy, xcheck, longitudinal")
		topN    = flag.Int("top", 100, "top-N clusters for the figures")
		csvDir  = flag.String("csv", "", "also write figure series as CSV files into this directory")
	)
	flag.Parse()
	if err := run(*dataDir, *orgs, *seed, *only, *topN, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "p2o-experiments:", err)
		os.Exit(1)
	}
}

func run(dataDir string, orgs int, seed int64, only string, topN int, csvDir string) error {
	ctx := context.Background()
	cfg := synth.DefaultConfig()
	cfg.NumOrgs = orgs
	cfg.Seed = seed
	dir := dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "p2o-experiments")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("generating synthetic world (orgs=%d seed=%d) into %s ...\n", orgs, seed, dir)
	env, err := experiments.Setup(ctx, cfg, dir)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline: %d IPv4 + %d IPv6 routed prefixes -> %d final clusters\n\n",
		env.DS.Stats.IPv4Prefixes, env.DS.Stats.IPv6Prefixes, env.DS.Stats.FinalClusters)

	want := func(id string) bool { return only == "" || only == id }
	out := os.Stdout

	if want("1") {
		if err := experiments.Table1().Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("2") {
		if err := env.Table2().Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "reduction vs basic cleaning: %.1f%% (paper: ~12%%)\n\n", env.Table2Reduction())
	}
	if want("3") {
		if err := env.Table3().Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("4") {
		if err := env.Table4().Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("5") {
		t, rep, err := env.Table5()
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "overall IPv4 recall: %.2f%% (paper: 99.03%%); precision depressed by non-exhaustive lists (paper: 66.55%%)\n\n", rep.Total.Recall())
	}
	if want("6") {
		t, rep, err := env.Table6()
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "overall IPv6 recall: %.2f%% (paper: 99.31%%)\n\n", rep.Total.Recall())
	}
	if want("7") {
		t, rows, err := env.Table7(3, 15)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		nDisp := 0
		for _, r := range rows {
			if r.Disparity() > 30 {
				nDisp++
			}
		}
		fmt.Fprintf(out, "%d ASNs with >30pp own-vs-origin ROA disparity out of %d measured\n\n", nDisp, len(rows))
	}
	if want("8") || want("9") || want("10") || want("11") || want("12") {
		for _, t := range experiments.Tables8to12() {
			if err := t.Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if want("f4") {
		fd := env.Figure4(topN)
		if err := fd.Series.Render(out); err != nil {
			return err
		}
		if err := writeCSV(csvDir, "figure4.csv", fd.Series); err != nil {
			return err
		}
		fmt.Fprintf(out, "top-%d cumulative IPv4 space: Prefix2Org %.3f vs WHOIS-name %.3f vs AS2Org %.3f (paper: P2O > WHOIS by ~6pp)\n\n",
			topN, fd.P2O, fd.Whois, fd.AS2Org)
	}
	if want("f5") {
		fd := env.Figure5(topN)
		if err := fd.Series.Render(out); err != nil {
			return err
		}
		if err := writeCSV(csvDir, "figure5.csv", fd.Series); err != nil {
			return err
		}
		fmt.Fprintf(out, "top-%d cumulative unique names: Prefix2Org %.0f vs WHOIS-name %.0f vs AS2Org %.0f (paper: P2O >600, WHOIS = 100)\n\n",
			topN, fd.P2O, fd.Whois, fd.AS2Org)
	}
	if want("ablation") {
		t, results, err := env.Ablation(ctx)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		full, wOnly := results[0].Stats, results[3].Stats
		fmt.Fprintf(out, "aggregation from W-only to full: %d -> %d clusters\n\n", wOnly.FinalClusters, full.FinalClusters)
	}
	if want("longitudinal") {
		t, reports, err := env.Longitudinal(ctx, 4)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		total := 0
		for _, r := range reports {
			total += len(r.Transfers)
		}
		fmt.Fprintf(out, "%d address transfers observed across the series\n\n", total)
	}
	if want("xcheck") {
		certs, roas, routed, err := env.CrossCheck(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cross-substrate consistency: %d certificate resources, %d ROAs, %d routed prefixes all inside delegated registry space\n\n", certs, roas, routed)
	}
	if want("legacy") {
		t, rows, err := env.LegacyStats()
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		for _, r := range rows {
			if r.RIR == "ARIN" {
				fmt.Fprintf(out, "ARIN zone legacy: %.1f%% of its routed v4 prefixes (paper: legacy ~30%% of v4 space, 16%% of ARIN-zone prefixes unsigned)\n", r.PctLegacy())
			}
		}
		fmt.Fprintln(out)
	}
	if want("r2") {
		t, rows, err := env.R2Verification(ctx)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		worst := 0.0
		for _, r := range rows {
			if !r.GrantsR2 && r.PctWithSubs() > worst {
				worst = r.PctWithSubs()
			}
		}
		fmt.Fprintf(out, "highest re-delegation rate among non-R2 types: %.1f%% (should stay near zero)\n\n", worst)
	}
	if want("leasing") {
		t, cands, err := env.Leasing(8)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d leasing-like clusters detected (paper cites Du et al.: ~4.1%% of routed v4 prefixes leased)\n\n", len(cands))
	}
	if want("8.1") {
		t, rep, err := env.Case81(10)
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "clusters without an ASN: %d of %d (%.2f%%; paper: 21.41%%), holding %.2f%% of IPv4 prefixes (paper: 8.0%%)\n\n",
			rep.NoASNClusters, rep.TotalClusters, rep.PctClusters(), rep.PctV4Prefixes)
	}
	return nil
}

// writeCSV persists a figure series when -csv is set.
func writeCSV(dir, name string, s *report.Series) error {
	if dir == "" {
		return nil
	}
	return fsx.WriteFile(filepath.Join(dir, name), s.Render)
}
