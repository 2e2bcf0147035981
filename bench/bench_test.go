package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the
// in-process workloads re-execute os.Executable() as their child, which
// under `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestCatalogueMatchesBenchmarkJSON holds the committed BENCHMARK.json
// to the catalogue it is generated from, and the catalogue to the
// contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with: go run ./bench -benchmark-json > BENCHMARK.json")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(committed, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d", runSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(runSeconds+9) > 3420 {
		t.Errorf("%d runs of %d s plus ~9 s of input generation and set-up each do not fit 3420 s", runs, runSeconds)
	}
}

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0}, {7, 3}, {20, 10}, {30, 19}, {100, 89}, {1000, 989}, {100000, 98999},
	} {
		if got := tailIndex(tc.n); got != tc.want {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4):
// for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, 0, at(0), at(100))
	tr.add("kid", root, 1, at(10), at(40))
	tr.add("kid", root, 2, at(30), at(60)) // overlaps the first: union is 10..60
	rows := map[string]layerRow{}
	for _, r := range tr.table() {
		rows[r.Name] = r
	}
	if got := rows["root"].Self; got != 50*time.Millisecond {
		t.Errorf("root self = %v, want 50ms", got)
	}
	if got := rows["kid"]; got.Count != 2 || got.Total != 60*time.Millisecond || got.Self != 60*time.Millisecond {
		t.Errorf("kid row = %+v", got)
	}
	var off *tracer
	if id, end := off.begin("x", 0); id != 0 || off.count() != 0 {
		t.Error("a nil tracer must record nothing")
	} else {
		end()
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS ...float64) string {
		path := dir + "/" + name
		for i, v := range opsPerS {
			line := &reportLine{Workload: "http-cold", Seed: int64(i)}
			line.Metrics = map[string]value{"ops_per_s": {v, "1/s"}}
			if err := appendReport(path, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name    string
		b       []float64
		worse   bool
		verdict string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, false, "ok"},
		{"slower", []float64{70, 71, 69, 70, 72}, true, "worse"},
		{"noisy", []float64{60, 140, 100, 75, 125}, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, base, write(tc.name, tc.b...))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
}

// TestBenchSmoke drives every workload end to end in -quick mode — a
// 300-org world, real daemon binaries, sub-second windows — untraced
// and traced, and requires every output to verify.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemons")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	diag, tableOut = io.Discard, io.Discard
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			line, err := runOne(ctx, runConfig{workload: w.Name, seed: 7, dur: 300 * time.Millisecond, trace: traced, quick: true})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, traced, line.Correct, line.Attempted, line.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.Name, traced, len(line.Metrics), len(specs))
			}
			for _, spec := range specs {
				v, ok := line.Metrics[spec.Name]
				if !ok || v.Unit != spec.Unit {
					t.Errorf("%s (trace %v): metric %s missing or wrong unit %q", w.Name, traced, spec.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, spec.Name, v.Value)
				}
			}
		}
	}
}
