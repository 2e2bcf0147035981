package main

import (
	"bytes"
	"strings"
	"testing"
)

const twoPackages = `goos: linux
goarch: amd64
pkg: example.com/m/internal/whoisd
cpu: test
BenchmarkAnswer-8   1000   200.0 ns/op   0 B/op   0 allocs/op
pkg: example.com/m/internal/httpd
BenchmarkAnswer-8   1000   900.0 ns/op   64 B/op   2 allocs/op
BenchmarkBulk-8     1000   50.0 ns/op
`

// TestResultsCarryTheirPackage: one run spans several packages, and two
// of them may name a benchmark alike — each result records the package
// that printed it, and compare keys on package and name.
func TestResultsCarryTheirPackage(t *testing.T) {
	cur, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range cur.Results {
		got[r.Pkg+"."+r.Name] = r.NsPerOp
	}
	want := map[string]float64{
		"example.com/m/internal/whoisd.BenchmarkAnswer": 200,
		"example.com/m/internal/httpd.BenchmarkAnswer":  900,
		"example.com/m/internal/httpd.BenchmarkBulk":    50,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v ns/op, want %v", k, got[k], v)
		}
	}

	// The same run compares clean against itself: the two
	// BenchmarkAnswer results are not mistaken for one another (that
	// would read as a 4.5x regression or a lost 0-alloc guarantee).
	var out bytes.Buffer
	if !compare(&out, cur, cur, 2.5, nil, 1.2) {
		t.Errorf("a run does not compare clean against itself:\n%s", out.String())
	}

	// A baseline saved before results carried a package still matches,
	// by name alone.
	old := &File{Results: []Result{{Name: "BenchmarkBulk", Iterations: 1, NsPerOp: 10}}}
	out.Reset()
	if compare(&out, old, cur, 2.5, nil, 1.2) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("5x slowdown against a package-less baseline not reported:\n%s", out.String())
	}
}

// TestBaselineOnlyResultsAreReportedRemoved: a benchmark deleted since
// the baseline was saved gets a "removed" line and does not fail the
// comparison — only regressions among the survivors do.
func TestBaselineOnlyResultsAreReportedRemoved(t *testing.T) {
	cur, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	base := &File{Results: append([]Result{
		{Pkg: "example.com/m", Name: "BenchmarkLookupAddrRadix", Iterations: 1, NsPerOp: 323},
		{Name: "BenchmarkRadixLookup", Iterations: 1, NsPerOp: 682},
	}, cur.Results...)}
	var out bytes.Buffer
	if !compare(&out, base, cur, 2.5, nil, 1.2) {
		t.Fatalf("baseline-only results failed the comparison:\n%s", out.String())
	}
	for _, name := range []string{"BenchmarkLookupAddrRadix", "BenchmarkRadixLookup"} {
		if !strings.Contains(out.String(), "removed  "+name) {
			t.Errorf("%s not reported as removed:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "removed"); n != 2 {
		t.Errorf("%d removed lines, want 2 (surviving benchmarks must not be listed):\n%s", n, out.String())
	}
	// Still a failure when a survivor regressed.
	slow := &File{Results: []Result{{Pkg: "example.com/m/internal/httpd", Name: "BenchmarkBulk", Iterations: 1, NsPerOp: 500}}}
	out.Reset()
	if compare(&out, base, slow, 2.5, nil, 1.2) || !strings.Contains(out.String(), "removed") {
		t.Errorf("10x slowdown beside removed benchmarks not reported as a failure:\n%s", out.String())
	}
}
