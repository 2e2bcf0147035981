// Command benchjson parses `go test -bench` output into JSON and
// compares runs, with nothing beyond the standard library.
//
// Save mode (the `make bench-save` target):
//
//	go test -bench=. -benchmem -run='^$' . | go run ./scripts/benchjson -out BENCH_2026-08-06.json
//
// Compare mode (the `make bench-compare` / `make ci` guard):
//
//	go test -bench=. -benchmem -run='^$' . | go run ./scripts/benchjson -against BENCH_2026-08-06.json
//
// Compare fails (exit 1) when a benchmark present in both runs got
// slower by more than -threshold (default 2.5x). The threshold is
// deliberately generous: benchmarks run on shared CI machines, and the
// guard is meant to catch order-of-magnitude regressions — an
// accidental O(n^2), a lost fast path — not noise. Allocation counts
// are compared exactly (they are deterministic): any benchmark that
// reported 0 allocs/op in the saved run must still report 0. A
// benchmark only one side has is listed as "new" or "removed" and never
// fails the comparison.
//
// Benchmarks whose name matches -strict-match are held to the tighter
// -strict-threshold (default 1.2x) instead: the hot lookup path is
// stable enough on one machine that a >20% slowdown is signal.
//
// -ratio asserts a relationship WITHIN the current run, immune to
// machine speed: 'NUM:DEN<=F' fails when ns/op(NUM) / ns/op(DEN)
// exceeds F. It guards invariants like "the delta rebuild is at least
// 5x faster than the full rebuild". -ratio may run standalone (neither
// -out nor -against) or combined with either mode. When the input
// holds several lines per benchmark (a `go test -count=N` run), each
// side reduces via min — the robust per-op estimate under machine
// noise, since interference only ever adds time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line. Pkg is the package whose run printed it
// (the "pkg:" line above it): one saved run spans several packages, and
// a benchmark name is only unique within its own.
type Result struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the saved run: environment lines plus results.
type File struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("out", "", "write parsed results as JSON to this file")
	against := flag.String("against", "", "compare parsed results against this saved JSON file")
	threshold := flag.Float64("threshold", 2.5, "max allowed ns/op slowdown factor in compare mode")
	strictMatch := flag.String("strict-match", "", "regexp of benchmark names held to -strict-threshold instead")
	strictThreshold := flag.Float64("strict-threshold", 1.2, "max allowed slowdown factor for -strict-match benchmarks")
	ratio := flag.String("ratio", "", "assert 'NUM:DEN<=F' on the current run's ns/op (e.g. 'BenchmarkDeltaRebuild/delta:BenchmarkDeltaRebuild/full<=0.2')")
	flag.Parse()
	var strictRe *regexp.Regexp
	if *strictMatch != "" {
		var err error
		if strictRe, err = regexp.Compile(*strictMatch); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -strict-match:", err)
			os.Exit(2)
		}
	}
	if *out != "" && *against != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out and -against are mutually exclusive")
		os.Exit(2)
	}
	if *out == "" && *against == "" && *ratio == "" {
		fmt.Fprintln(os.Stderr, "benchjson: one of -out, -against, or -ratio is required")
		os.Exit(2)
	}
	cur, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(cur.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}
	if *ratio != "" {
		ok, err := checkRatio(os.Stdout, cur, *ratio)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		if *out == "" && *against == "" {
			return
		}
	}
	if *out != "" {
		if err := save(*out, cur); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		fmt.Printf("benchjson: wrote %d results to %s\n", len(cur.Results), *out)
		return
	}
	base, err := load(*against)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, base, cur, *threshold, strictRe, *strictThreshold) {
		os.Exit(1)
	}
}

// parse reads `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkName-8   123  456.7 ns/op  89 B/op  1 allocs/op  3.2 extra_metric
func parse(r io.Reader) (*File, error) {
	f := &File{}
	pkg := "" // of the package block being read
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			res.Pkg = pkg
			f.Results = append(f.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, fmt.Errorf("short benchmark line %q", line)
	}
	// Strip the -GOMAXPROCS suffix so runs at different core counts
	// still match up.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad iteration count in %q", line)
	}
	res := Result{Name: name, Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			a := v
			res.AllocsPerOp = &a
		case "MB/s":
			// throughput is derived from ns/op; skip
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	if res.NsPerOp == 0 && res.Iterations > 0 {
		return Result{}, fmt.Errorf("no ns/op in %q", line)
	}
	return res, nil
}

// checkRatio enforces a 'NUM:DEN<=F' spec against the current run. Both
// benchmarks must be present; a missing side is an error (exit 2), not
// a pass, so a renamed benchmark cannot silently disable the guard.
// Several lines per name (a -count=N run) reduce via min ns/op.
func checkRatio(w io.Writer, cur *File, spec string) (bool, error) {
	names, limStr, ok := strings.Cut(spec, "<=")
	if !ok {
		return false, fmt.Errorf("bad -ratio %q: want 'NUM:DEN<=F'", spec)
	}
	num, den, ok := strings.Cut(names, ":")
	if !ok {
		return false, fmt.Errorf("bad -ratio %q: want 'NUM:DEN<=F'", spec)
	}
	num, den = strings.TrimSpace(num), strings.TrimSpace(den)
	limit, err := strconv.ParseFloat(strings.TrimSpace(limStr), 64)
	if err != nil || limit <= 0 {
		return false, fmt.Errorf("bad -ratio limit %q", limStr)
	}
	minNs := func(name string) (float64, bool) {
		best, found := 0.0, false
		for _, r := range cur.Results {
			if r.Name == name && r.NsPerOp > 0 && (!found || r.NsPerOp < best) {
				best, found = r.NsPerOp, true
			}
		}
		return best, found
	}
	nv, found := minNs(num)
	if !found {
		return false, fmt.Errorf("-ratio: benchmark %q not in this run", num)
	}
	dv, found := minNs(den)
	if !found {
		return false, fmt.Errorf("-ratio: benchmark %q not in this run", den)
	}
	got := nv / dv
	verdict := "ok"
	pass := got <= limit
	if !pass {
		verdict = "RATIO-VIOLATION"
	}
	fmt.Fprintf(w, "  %-8s %s / %s = %.3f (limit %.3f)\n", verdict, num, den, got, limit)
	return pass, nil
}

func save(path string, f *File) error {
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].key() < f.Results[j].key() })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// key identifies a result across runs: package and name. A result
// without a package (a baseline saved before results carried one) keys
// on its name alone.
func (r Result) key() string { return r.Name + " " + r.Pkg }

func compare(w io.Writer, base, cur *File, threshold float64, strictRe *regexp.Regexp, strictThreshold float64) bool {
	baseBy := map[string]Result{}
	for _, r := range base.Results {
		baseBy[r.key()] = r
	}
	curBy := map[string]Result{}
	for _, r := range cur.Results {
		curBy[r.key()] = r
	}
	keys := make([]string, 0, len(curBy))
	for k := range curBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok, compared := true, 0
	matched := map[string]bool{} // baseline keys some current result compared against
	for _, k := range keys {
		c := curBy[k]
		name := c.Name
		bk := k
		b, found := baseBy[bk]
		if !found {
			bk = Result{Name: name}.key()
			b, found = baseBy[bk]
		}
		if found {
			matched[bk] = true
		}
		if !found || b.NsPerOp == 0 {
			fmt.Fprintf(w, "  new      %-50s %12.1f ns/op\n", name, c.NsPerOp)
			continue
		}
		compared++
		factor := c.NsPerOp / b.NsPerOp
		limit := threshold
		if strictRe != nil && strictRe.MatchString(name) {
			limit = strictThreshold
		}
		verdict := "ok"
		if factor > limit {
			verdict = "REGRESSION"
			ok = false
		}
		if b.AllocsPerOp != nil && *b.AllocsPerOp == 0 &&
			(c.AllocsPerOp == nil || *c.AllocsPerOp != 0) {
			verdict = "ALLOC-REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "  %-8s %-50s %12.1f ns/op  (%.2fx of saved %.1f)\n", verdict, name, c.NsPerOp, factor, b.NsPerOp)
	}
	// A benchmark only the baseline has was deleted or dropped from the
	// tracked set: worth a line, never a failure.
	for _, r := range base.Results {
		if !matched[r.key()] {
			fmt.Fprintf(w, "  removed  %-50s %12.1f ns/op saved\n", r.Name, r.NsPerOp)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchjson: no overlapping benchmarks to compare")
		return false
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression beyond the allowed threshold\n")
	}
	return ok
}
