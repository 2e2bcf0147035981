package experiments

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// One shared environment: Setup is the expensive part and every
// experiment is read-only over it. Its data directory outlives every
// test that reads it; TestMain removes it.
var (
	envOnce sync.Once
	envDir  string
	envVal  *Env
	envErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if envDir != "" {
		os.RemoveAll(envDir)
	}
	os.Exit(code)
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envDir, envErr = os.MkdirTemp("", "p2o-exp-test")
		if envErr != nil {
			return
		}
		envVal, envErr = Setup(context.Background(), synth.SmallConfig(), envDir)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestTable1Static(t *testing.T) {
	var sb strings.Builder
	if err := Table1().Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC",
		"Allocated PA", "Reassignment", "Direct Owner", "Delegated Customer"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTables8to12Static(t *testing.T) {
	tables := Tables8to12()
	if len(tables) != 5 {
		t.Fatalf("tables = %d", len(tables))
	}
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"Table 8", "Table 9", "Table 10", "Table 11", "Table 12",
		"Allocation-Legacy", "Legacy-Not-Sponsored", "modified type in Prefix2Org",
		"Aggregated-By-LIR", "IPv6 only"} {
		if !strings.Contains(out, want) {
			t.Errorf("rights tables missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := env.Table2().Render(&sb); err != nil {
		t.Fatal(err)
	}
	red := env.Table2Reduction()
	// Paper: ~12%; direction + rough magnitude.
	if red < 3 || red > 40 {
		t.Errorf("name reduction = %.1f%%, want 3..40", red)
	}
}

func TestTable3HasMultiNameCluster(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := env.Table3().Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Final Cluster") || len(strings.Split(out, "\n")) < 5 {
		t.Errorf("Table 3 too thin:\n%s", out)
	}
}

func TestTable5RecallShape(t *testing.T) {
	env := testEnv(t)
	_, rep, err := env.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 5 {
		t.Fatalf("too few validation rows: %d", len(rep.Rows))
	}
	if got := rep.Total.Recall(); got < 97 {
		t.Errorf("overall IPv4 recall = %.2f%%, want >= 97 (paper: 99.03)", got)
	}
	// Precision is below recall (non-exhaustive public lists).
	if rep.Total.Precision() >= rep.Total.Recall() {
		t.Errorf("precision %.2f >= recall %.2f; lists should be non-exhaustive",
			rep.Total.Precision(), rep.Total.Recall())
	}
	// Complete-list orgs get 100% precision (paper: Cloudflare, IIJ).
	sawComplete := false
	for _, r := range rep.Rows {
		if r.Complete && r.Name != "internet2-cohort" && r.Name != "email-cohort" {
			sawComplete = true
			if r.Precision() != 100 {
				t.Errorf("complete-list org %s precision = %.2f, want 100", r.Name, r.Precision())
			}
		}
	}
	if !sawComplete {
		t.Error("no complete-list organizations in validation")
	}
	// False negatives exist (partner + subsidiary injections).
	if rep.Total.FN == 0 {
		t.Error("no false negatives at all; injections missing")
	}
}

func TestTable6RecallShape(t *testing.T) {
	env := testEnv(t)
	_, rep, err := env.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.True == 0 {
		t.Fatal("no IPv6 validation data")
	}
	if got := rep.Total.Recall(); got < 97 {
		t.Errorf("overall IPv6 recall = %.2f%%, want >= 97 (paper: 99.31)", got)
	}
}

func TestTable7DisparityShape(t *testing.T) {
	env := testEnv(t)
	_, rows, err := env.Table7(3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no ROA coverage rows")
	}
	// The paper's headline: adopter ISPs with ~100% own-prefix coverage
	// but much lower origin-prefix coverage.
	found := false
	for _, r := range rows {
		if r.OwnPct() >= 99 && r.OriginPct() < 60 && r.OriginCount >= 5 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no ASN exhibits the own=100%%/origin<60%% disparity pattern")
	}
}

func TestFigure4Shape(t *testing.T) {
	env := testEnv(t)
	fd := env.Figure4(100)
	if fd.Series.Len() != 100 {
		t.Fatalf("series len = %d", fd.Series.Len())
	}
	// P2O curve above the WHOIS-name curve (the paper's headline gap).
	if fd.P2O <= fd.Whois {
		t.Errorf("P2O top-100 %.3f <= WHOIS %.3f", fd.P2O, fd.Whois)
	}
	// Curves are monotone nondecreasing fractions. A group's space is the
	// deduped sum of its own prefixes, so overlap ACROSS groups (a /24
	// owned by one org inside another org's /16) can push the cumulative
	// sum marginally above 1 — allow a small overshoot.
	for i := 0; i < fd.Series.Len(); i++ {
		for col := 1; col <= 3; col++ {
			v := fd.Series.Value(i, col)
			if v < 0 || v > 1.1 {
				t.Fatalf("series[%d][%d] = %v out of range", i, col, v)
			}
			if i > 0 && v+1e-9 < fd.Series.Value(i-1, col) {
				t.Fatalf("series[%d][%d] decreases", i, col)
			}
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	env := testEnv(t)
	fd := env.Figure5(100)
	// WHOIS-name clusters contain exactly one name each.
	if fd.Whois != 100 {
		t.Errorf("WHOIS top-100 names = %.0f, want 100", fd.Whois)
	}
	// P2O aggregates more names into the top-100 (paper: >600 vs 100).
	if fd.P2O <= fd.Whois {
		t.Errorf("P2O names %.0f <= WHOIS %.0f", fd.P2O, fd.Whois)
	}
	// AS2Org-based clustering absorbs even more (misattribution).
	if fd.AS2Org <= fd.Whois {
		t.Errorf("AS2Org names %.0f <= WHOIS %.0f", fd.AS2Org, fd.Whois)
	}
}

func TestCase81Shape(t *testing.T) {
	env := testEnv(t)
	_, rep, err := env.Case81(10)
	if err != nil {
		t.Fatal(err)
	}
	// A fifth-ish of clusters hold space without an ASN (paper: 21.41%).
	if p := rep.PctClusters(); p < 5 || p > 50 {
		t.Errorf("no-ASN cluster share = %.1f%%, want 5..50", p)
	}
	if len(rep.Top) == 0 {
		t.Fatal("no top holders without ASN")
	}
	// Top holders announce through provider ASNs.
	if rep.Top[0].OriginASNs == 0 {
		t.Error("top no-ASN holder has no originating ASNs")
	}
}

func TestAblationShape(t *testing.T) {
	env := testEnv(t)
	_, results, err := env.Ablation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("variants = %d", len(results))
	}
	byName := map[string]int{}
	multi := map[string]int{}
	for _, r := range results {
		byName[r.Name] = r.Stats.FinalClusters
		multi[r.Name] = r.Stats.MultiNameClusters
	}
	full := byName["full (W+R+A)"]
	wOnly := byName["names only (W)"]
	// Full clustering aggregates the most; each single-signal run sits
	// between full and W-only (the paper's complementarity claim).
	if full > byName["no RPKI signal (W+A)"] || full > byName["no ASN signal (W+R)"] {
		t.Errorf("full (%d) aggregated less than a single-signal run: %v", full, byName)
	}
	if byName["no RPKI signal (W+A)"] > wOnly || byName["no ASN signal (W+R)"] > wOnly {
		t.Errorf("single-signal run aggregated less than W-only: %v", byName)
	}
	if full >= wOnly {
		t.Errorf("no aggregation at all: full %d vs W-only %d", full, wOnly)
	}
	// Both signals contribute multi-name merges on their own.
	if multi["no RPKI signal (W+A)"] == 0 {
		t.Error("ASN signal alone produced no multi-name clusters")
	}
	if multi["no ASN signal (W+R)"] == 0 {
		t.Error("RPKI signal alone produced no multi-name clusters")
	}
	if multi["names only (W)"] != 0 || multi["no name cleaning"] != 0 {
		t.Errorf("signal-less variants merged names: %v", multi)
	}
}

func TestLeasingExperiment(t *testing.T) {
	env := testEnv(t)
	tbl, cands, err := env.Leasing(5)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if len(cands) == 0 {
		t.Fatal("no leasing candidates at test scale")
	}
}

// §5.1's data-driven R2 verification: allocation types without the
// sub-delegation right must show (near-)zero re-delegation in the WHOIS
// trees, while R2-granting Allocation types carry the sub-delegations.
func TestR2VerificationShape(t *testing.T) {
	env := testEnv(t)
	_, rows, err := env.R2Verification(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var r2Dominant, nonR2Max float64
	for _, r := range rows {
		if r.GrantsR2 {
			if r.PctWithSubs() > r2Dominant {
				r2Dominant = r.PctWithSubs()
			}
		} else if r.PctWithSubs() > nonR2Max {
			nonR2Max = r.PctWithSubs()
		}
	}
	if r2Dominant == 0 {
		t.Error("no R2 type re-delegates at all")
	}
	if nonR2Max > 10 {
		t.Errorf("a non-R2 type re-delegates %.1f%% of the time", nonR2Max)
	}
}

// Appendix B.1's legacy accounting: ARIN and RIPE zones carry legacy
// space, a share of which lacks the RPKI right; the other zones have none.
func TestLegacyStatsShape(t *testing.T) {
	env := testEnv(t)
	_, rows, err := env.LegacyStats()
	if err != nil {
		t.Fatal(err)
	}
	byRIR := map[string]LegacyRow{}
	for _, r := range rows {
		byRIR[r.RIR] = r
	}
	for _, rir := range []string{"ARIN", "RIPE"} {
		r := byRIR[rir]
		if r.LegacyPrefixes == 0 {
			t.Errorf("%s zone has no legacy prefixes", rir)
		}
		if r.NoRPKIRight == 0 {
			t.Errorf("%s zone has no unsigned legacy", rir)
		}
		if r.NoRPKIRight > r.LegacyPrefixes {
			t.Errorf("%s: unsigned %d > legacy %d", rir, r.NoRPKIRight, r.LegacyPrefixes)
		}
	}
	for _, rir := range []string{"APNIC", "LACNIC", "AFRINIC"} {
		if byRIR[rir].LegacyPrefixes != 0 {
			t.Errorf("%s zone unexpectedly has legacy-typed prefixes", rir)
		}
	}
}

func TestCrossCheckConsistency(t *testing.T) {
	env := testEnv(t)
	certs, roas, routed, err := env.CrossCheck(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if certs == 0 || roas == 0 || routed == 0 {
		t.Errorf("cross check verified nothing: %d/%d/%d", certs, roas, routed)
	}
}

func TestLongitudinalSeries(t *testing.T) {
	// A private env: Longitudinal evolves the world in place, which would
	// poison the shared environment for other tests.
	env, err := Setup(context.Background(), synth.SmallConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, reports, err := env.Longitudinal(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	for i, rep := range reports {
		if len(rep.Added) == 0 {
			t.Errorf("epoch %d: no new delegations detected", i+1)
		}
		if len(rep.Transfers) == 0 {
			t.Errorf("epoch %d: no transfers detected", i+1)
		}
	}
}
