// Package daemontest is the test support the daemon skeleton's own
// tests and the two daemon commands' smoke tests share: a synthetic
// world on disk, booting a Spec on ephemeral ports, metric totals read
// off /metrics, and the pinned surfaces (flag set, metric names)
// compared against golden lists captured before the daemons moved onto
// the skeleton.
package daemontest

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// World writes the small synthetic world to a fresh temp directory.
func World(t *testing.T) (*synth.World, string) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return w, dir
}

// Boot starts spec exactly as its main would, on ephemeral query and
// admin ports at log level warn, and closes it when the test ends. f
// names the source (DataDir or Snapshot) and anything else under test.
func Boot(ctx context.Context, t *testing.T, spec daemon.Spec, f daemon.Flags) *daemon.App {
	t.Helper()
	f.Listen, f.MetricsListen, f.LogLevel = "127.0.0.1:0", "127.0.0.1:0", "warn"
	a, err := daemon.Start(ctx, spec, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

// Get fetches one admin-listener path and returns status and body.
func Get(t *testing.T, a *daemon.App, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + a.AdminAddr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// FlagSet renders fs as one "name=default" line per flag in
// flag.VisitAll order.
func FlagSet(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "%s=%s\n", f.Name, f.DefValue) })
	return b.String()
}

// MetricNames renders the sorted set of metric names (labels and the
// values dropped) on a's /metrics page, one per line.
func MetricNames(t *testing.T, a *daemon.App) string {
	t.Helper()
	_, page := Get(t, a, "/metrics")
	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "\n") + "\n"
}

// MetricSum adds up every series of the metric family name on a's
// /metrics page — the bare name and each name{labels...} line — so a
// counter split by label reads as one total.
func MetricSum(t *testing.T, a *daemon.App, name string) float64 {
	t.Helper()
	_, page := Get(t, a, "/metrics")
	var sum float64
	for _, line := range strings.Split(page, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || (line[:i] != name && !strings.HasPrefix(line, name+"{")) {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// Golden compares got against the golden file at path and reports the
// first line that differs.
func Golden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(raw) {
		return
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("%s differs from what was captured before the refactor at line %d:\n  want %q\n  got  %q", path, i+1, want[i], have[i])
			return
		}
	}
	t.Errorf("%s differs from what was captured before the refactor: want %d lines, got %d", path, len(want), len(have))
}
