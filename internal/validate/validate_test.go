package validate

import (
	"context"
	"net/netip"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// tinyDataset: Acme owns 10.0.0.0/16 and 10.1.0.0/16 (routed, plus a /24
// more-specific); Zenith owns 11.0.0.0/16.
func tinyDataset(t *testing.T) *prefix2org.Dataset {
	t.Helper()
	db := whois.NewDatabase()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	add := func(prefix, org string) {
		db.Records = append(db.Records, whois.Record{
			Prefixes: []netip.Prefix{mp(prefix)},
			Registry: alloc.ARIN, Status: "Allocation", OrgName: org, Updated: t0,
		})
	}
	add("10.0.0.0/16", "Acme Inc")
	add("10.1.0.0/16", "Acme Inc")
	add("11.0.0.0/16", "Zenith LLC")
	tbl := bgp.NewTable([]bgp.Route{
		{Prefix: mp("10.0.0.0/16"), Origin: 64500},
		{Prefix: mp("10.1.0.0/16"), Origin: 64500},
		{Prefix: mp("10.1.2.0/24"), Origin: 64500}, // more-specific announcement
		{Prefix: mp("11.0.0.0/16"), Origin: 64501},
	})
	repo := rpki.NewRepository()
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}
	asd := as2org.NewDataset()
	ds, err := prefix2org.Build(context.Background(), db, tbl, repo, asd, nil, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEvaluateOrgExactMatch(t *testing.T) {
	ds := tinyDataset(t)
	row := EvaluateOrg(ds, "Acme", []string{"Acme Inc"},
		[]netip.Prefix{mp("10.0.0.0/16"), mp("10.1.0.0/16")})
	// Predicted: the two /16s plus the /24 more-specific (TP by coverage).
	if row.Pred != 3 {
		t.Errorf("Pred = %d, want 3", row.Pred)
	}
	if row.TP != 3 || row.FP != 0 || row.FN != 0 {
		t.Errorf("TP/FP/FN = %d/%d/%d, want 3/0/0", row.TP, row.FP, row.FN)
	}
	if row.Precision() != 100 || row.Recall() != 100 {
		t.Errorf("P/R = %.1f/%.1f", row.Precision(), row.Recall())
	}
}

func TestEvaluateOrgIncompleteList(t *testing.T) {
	ds := tinyDataset(t)
	// Public list omits 10.1.0.0/16: the extra predictions become FPs.
	row := EvaluateOrg(ds, "Acme", []string{"Acme Inc"},
		[]netip.Prefix{mp("10.0.0.0/16")})
	if row.FP != 2 { // 10.1.0.0/16 and 10.1.2.0/24 predicted but unlisted
		t.Errorf("FP = %d, want 2", row.FP)
	}
	if row.Recall() != 100 {
		t.Errorf("recall = %.1f, want 100", row.Recall())
	}
	if row.Precision() >= 100 {
		t.Errorf("precision = %.1f, want < 100", row.Precision())
	}
}

func TestEvaluateOrgFalseNegative(t *testing.T) {
	ds := tinyDataset(t)
	// The list claims Zenith's prefix too (partner case): FN.
	row := EvaluateOrg(ds, "Acme", []string{"Acme Inc"},
		[]netip.Prefix{mp("10.0.0.0/16"), mp("11.0.0.0/16")})
	if row.FN != 1 {
		t.Errorf("FN = %d, want 1", row.FN)
	}
	if row.Recall() >= 100 {
		t.Errorf("recall = %.1f, want < 100", row.Recall())
	}
}

func TestEvaluateOrgUnknownName(t *testing.T) {
	ds := tinyDataset(t)
	row := EvaluateOrg(ds, "Ghost", []string{"Ghost Corp"}, []netip.Prefix{mp("10.0.0.0/16")})
	if row.Pred != 0 || row.FN != 1 {
		t.Errorf("unknown org: Pred=%d FN=%d", row.Pred, row.FN)
	}
	if row.Precision() != 0 {
		t.Errorf("precision of empty prediction = %.1f", row.Precision())
	}
}

func TestEvaluateNilInputs(t *testing.T) {
	if _, err := Evaluate(nil, nil, synth.GroupValidation, false); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestEvaluateGroupEndToEnd(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := prefix2org.BuildFromDir(t.Context(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(ds, w.Truth, synth.GroupValidation, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	if rep.Total.Recall() < 95 {
		t.Errorf("validation recall = %.2f", rep.Total.Recall())
	}
	// Rows are sorted by name.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i-1].Name > rep.Rows[i].Name {
			t.Error("rows not sorted")
		}
	}
	// Totals are consistent with rows.
	sumTP := 0
	for _, r := range rep.Rows {
		sumTP += r.TP
	}
	if sumTP != rep.Total.TP {
		t.Errorf("total TP %d != sum %d", rep.Total.TP, sumTP)
	}
}

func TestMedianRecall(t *testing.T) {
	rep := &Report{Rows: []OrgResult{
		{Name: "a", True: 10, FN: 0}, // 100
		{Name: "b", True: 10, FN: 5}, // 50
		{Name: "c", True: 10, FN: 1}, // 90
	}}
	if got := rep.MedianRecall(); got != 90 {
		t.Errorf("median = %v, want 90", got)
	}
	rep.Rows = rep.Rows[:2]
	if got := rep.MedianRecall(); got != 75 {
		t.Errorf("even median = %v, want 75", got)
	}
	if (&Report{}).MedianRecall() != 0 {
		t.Error("empty median != 0")
	}
}
