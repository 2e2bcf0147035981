package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailIndex picks the sample reported as p99_ms from n sorted samples:
// the 99th percentile when it has at least ten samples beyond it,
// otherwise the highest percentile that does, and never below the
// median — with a handful of builds per run the tail is not resolvable
// and the honest number is the median again.
func tailIndex(n int) int {
	idx := (99*n+99)/100 - 1 // ceil(0.99 n) - 1
	if idx > n-11 {
		idx = n - 11
	}
	if mid := n / 2; idx < mid {
		idx = mid
	}
	return idx
}

// latencySummary returns the median and the tail (see tailIndex) of
// lat in milliseconds. lat is sorted in place.
func latencySummary(lat []time.Duration) (p50ms, tailms float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ms(lat[len(lat)/2]), ms(lat[tailIndex(len(lat))])
}

// peakRSSMB reads VmHWM — the process's peak resident set — from
// /proc/<pid>/status. The lint rules keep syscall out of this package,
// so Rusage is not an option.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
