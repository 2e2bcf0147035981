package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReport groups a -report file's untraced runs by workload and
// end-to-end metric.
func readReport(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line reportLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if line.Trace {
			continue
		}
		if out[line.Workload] == nil {
			out[line.Workload] = make(map[string][]float64)
		}
		for name, v := range line.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median (the method of Python's statistics.quantiles,
// n=4: exclusive, linear interpolation).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compareReports prints, per workload and end-to-end metric, both
// medians, B's ratio to its base A, the bound, and a verdict:
// "worse" when B's median is worse than A's by more than the bound,
// "unresolved" when either side's spread is wider than the bound (unless
// every run of B reads better than every run of A), "ok" otherwise.
func compareReports(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-10s %14s %14s %10s %7s %9s %9s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "bound", "A spread", "B spread", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := a[wl.Name][spec.Name], b[wl.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse, as a share of A.
			change := (mb - ma) / ma
			if spec.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case change > spec.Bound:
				verdict = "worse"
				worse = true
			case (sa > spec.Bound || sb > spec.Bound) && spec.Name != "setup_s" && !allBetter(va, vb, spec.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-20s %-10s %14.6g %14.6g %10.4f %6.0f%% %8.1f%% %8.1f%%  %s (n=%d/%d)\n",
				wl.Name, spec.Name, ma, mb, mb/ma, spec.Bound*100, sa*100, sb*100, verdict, len(va), len(vb))
		}
	}
	return worse, nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
