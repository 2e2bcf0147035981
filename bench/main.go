// Command bench (p2obench) is the repository's benchmark: seven
// workloads over the build, delta and serve paths, five end-to-end
// metrics per workload and a per-layer breakdown from a traced run. It
// measures every layer from outside — by timing calls into public
// functions, or by driving the real daemon binaries over loopback —
// and checks every output it times. README.md in this directory is the
// catalogue; BENCHMARK.json at the module root declares the contract.
//
// Usage, from the module root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench                       # every workload, both runs, one table
//	go run ./bench -list                 # names, units, directions, bounds
//	go run ./bench -compare A.jsonl B.jsonl
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct","attempted","failed","metrics"}. The exit status
// is non-zero when any output failed verification.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// childEnv marks a process started by runInChild.
const childEnv = "P2OBENCH_CHILD"

// diag receives progress and verification messages, tableOut the traced
// run's span table; the smoke test silences both.
var (
	diag     io.Writer = os.Stderr
	tableOut io.Writer = os.Stdout
)

// buildDir is where everything the benchmark writes goes, under the
// directory it is run from; .gitignore names it.
const buildDir = ".bench_build"

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// reportLine is one run as -report appends it and -compare reads it.
type reportLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"workload_digest"`
	result
}

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run (see -list); empty runs every workload, untraced then traced")
		seed       = flag.Int64("seed", 20240901, "derives the world, the evolve steps and every query stream")
		secs       = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut   = flag.String("trace-out", "", "with -trace 1: write the span list to this file as JSON")
		report     = flag.String("report", "", "append this run's result to a JSON-lines file (input of -compare)")
		quick      = flag.Bool("quick", false, "smoke mode: 300 orgs, one set-up, short probes; numbers mean nothing")
		list       = flag.Bool("list", false, "print workloads and metrics with unit, direction and bound")
		printJSON  = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the catalogue")
		compare    = flag.Bool("compare", false, "compare two -report files given as arguments")
		child      = flag.String("child", "", "internal: run an in-process workload in this process")
		childWork  = flag.String("child-work", "", "internal: scratch directory of the parent run")
		childQuick = flag.Bool("child-quick", false, "internal")
		childProbe = flag.Bool("child-probes", false, "internal: with -trace 1, also run the layer probes")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case *list:
		printList(os.Stdout)
	case *printJSON:
		err = writeBenchmarkJSON(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two report files")
			break
		}
		var worse bool
		if worse, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			err = errors.New("at least one metric is worse than its bound allows")
		}
	case *child != "":
		var rep *childReport
		rep, err = runChild(ctx, childConfig{workload: *child, work: *childWork, seed: *seed,
			dur: window(*secs), trace: *trace != 0, quick: *childQuick, probes: *childProbe})
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	case *workload == "":
		err = runAll(ctx, *seed, *secs, *quick, *report)
	default:
		c := runConfig{workload: *workload, seed: *seed, dur: window(*secs),
			trace: *trace != 0, quick: *quick, traceOut: *traceOut}
		var line *reportLine
		if line, err = runOne(ctx, c); err == nil {
			if *report != "" {
				err = appendReport(*report, line)
			}
			out, _ := json.Marshal(line.result)
			fmt.Println(string(out))
			if err == nil && !line.Correct {
				err = errors.New("verification failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2obench:", err)
		stop()
		os.Exit(1)
	}
}

func window(secs float64) time.Duration { return time.Duration(secs * float64(time.Second)) }

// runOne runs one workload once and names what it measured.
func runOne(ctx context.Context, c runConfig) (*reportLine, error) {
	if !hasWorkload(c.workload) {
		return nil, fmt.Errorf("unknown workload %q (see -list)", c.workload)
	}
	if c.dur <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	c.binDir = filepath.Join(cwd, buildDir, "bin")
	if c.work, err = makeWorkDir(cwd); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.work)

	inProcess := c.workload == "build-full" || c.workload == "reload-delta"
	if !inProcess {
		if err := buildDaemons(ctx, c.binDir, "p2o-httpd", "p2o-whoisd"); err != nil {
			return nil, err
		}
	}
	orgs := fullOrgs
	if c.quick {
		orgs = quickOrgs
	}
	var steps []synth.EvolveOptions
	switch c.workload {
	case "reload-delta":
		steps = deltaSteps
	case "serve-under-reload":
		steps = reloadStep
	}
	in, err := makeInputs(ctx, c.work, c.seed, orgs, steps)
	if err != nil {
		return nil, err
	}

	tr := newTracer(c.trace)
	var m *measured
	switch {
	case inProcess:
		m, err = runInChildren(ctx, c, tr)
	case c.workload == "serve-under-reload":
		m, err = runUnderReload(ctx, c, in, tr)
	default:
		m, err = runServe(ctx, c, in, tr)
	}
	if err != nil {
		return nil, err
	}
	m.layers["synth.generate_s"] = in.generate.Seconds()
	m.layers["synth.evolve_s"] = in.evolve.Seconds()
	m.layers["synth.write_s"] = in.write.Seconds()
	m.layers["trace.spans"] = float64(tr.count())
	for _, p := range m.problems {
		fmt.Fprintln(diag, "p2obench: verification:", p)
	}
	if c.traceOut != "" {
		if err := tr.writeFile(c.traceOut); err != nil {
			return nil, err
		}
	}

	line := &reportLine{Workload: c.workload, Seed: c.seed, Trace: c.trace, Digest: in.digest + ":" + m.digest}
	line.Attempted, line.Failed = m.attempted, m.failed
	line.Correct = m.failed == 0 && len(m.problems) == 0 && m.attempted > 0
	line.Metrics = map[string]value{}
	if c.trace {
		tr.printTable(tableOut)
		for _, spec := range perLayer {
			line.Metrics[spec.Name] = value{m.layers[spec.Name], spec.Unit}
		}
	} else {
		e2e := map[string]float64{
			"ops_per_s": m.opsPerSec,
			"p50_ms":    m.p50ms,
			"p99_ms":    m.p99ms,
			"rss_mb":    median(m.rss),
			"setup_s":   median(m.setup),
		}
		for _, spec := range endToEnd {
			line.Metrics[spec.Name] = value{e2e[spec.Name], spec.Unit}
		}
	}
	fmt.Fprintf(diag, "p2obench: %s seed %d: %d samples, %d attempted, %d failed, workload_digest %s\n",
		c.workload, c.seed, m.samples, m.attempted, m.failed, line.Digest)
	return line, nil
}

func makeWorkDir(cwd string) (string, error) {
	root := filepath.Join(cwd, buildDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// runInChildren runs an in-process workload in fresh children of the
// bench binary, one per instance, and pools what they report.
func runInChildren(ctx context.Context, c runConfig, tr *tracer) (*measured, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	m := &measured{layers: map[string]float64{}, digest: "in-process"}
	layers := layerSamples{}
	var lat []time.Duration
	var busy float64
	n := instanceCount(c.quick)
	for i := 0; i < n; i++ {
		args := []string{"-child", c.workload, "-child-work", c.work, "-seed", fmt.Sprint(c.seed),
			"-seconds", fmt.Sprint(c.window().Seconds())}
		if c.trace {
			args = append(args, "-trace", "1")
		}
		if c.quick {
			args = append(args, "-child-quick")
		}
		if i == n-1 {
			args = append(args, "-child-probes")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		// A test binary re-executed as the child hands over to main (see
		// TestMain); the bench binary ignores the variable.
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = diag
		id, end := tr.begin(c.workload+".child", 0)
		started := time.Now()
		out, err := cmd.Output()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", c.workload, err)
		}
		var rep childReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return nil, fmt.Errorf("%s child report: %w", c.workload, err)
		}
		tr.merge(rep.Spans, id, started)
		m.setup = append(m.setup, rep.SetupS)
		m.rss = append(m.rss, rep.RSSMB)
		m.attempted += rep.Attempted
		m.failed += rep.Failed
		m.problems = append(m.problems, rep.Problems...)
		for name, v := range rep.Layers {
			layers.add(name, v)
		}
		for _, s := range rep.Ops {
			lat = append(lat, time.Duration(s*float64(time.Second)))
			busy += s
		}
	}
	layers.medians(m.layers)
	// Too few ops a run to slice the windows: the median over the ops of
	// all children already shrugs off a disturbance shorter than half
	// the run, and one child in a slow mode.
	if busy > 0 {
		m.opsPerSec = float64(len(lat)) / busy
	}
	m.samples = len(lat)
	m.p50ms, m.p99ms = latencySummary(lat)
	return m, nil
}

func appendReport(path string, line *reportLine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll is the one command that prints every metric by name: each
// workload in a fresh process, untraced for the end-to-end numbers and
// traced for the layers.
func runAll(ctx context.Context, seed int64, secs float64, quick bool, report string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-trace", trace}
			if quick {
				args = append(args, "-quick")
			}
			if report != "" {
				args = append(args, "-report", report)
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			line := lastLine(out)
			var res result
			if jerr := json.Unmarshal(line, &res); jerr != nil {
				return fmt.Errorf("%s (trace %s): %v: no result line", w.Name, trace, err)
			}
			if err != nil || !res.Correct {
				failed = true
			}
			printResult(w.Name, trace == "1", &res)
		}
	}
	if failed {
		return errors.New("verification failed on at least one workload")
	}
	return nil
}

func lastLine(out []byte) []byte {
	for len(out) > 0 && out[len(out)-1] == '\n' {
		out = out[:len(out)-1]
	}
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] == '\n' {
			return out[i+1:]
		}
	}
	return out
}

func printResult(workload string, traced bool, res *result) {
	specs, kind := endToEnd, "end-to-end"
	if traced {
		specs, kind = perLayer, "per-layer"
	}
	fmt.Printf("%s  %s  correct=%v attempted=%d failed=%d\n", workload, kind, res.Correct, res.Attempted, res.Failed)
	for _, spec := range specs {
		v := res.Metrics[spec.Name]
		if traced && v.Value == 0 {
			continue
		}
		fmt.Printf("  %-34s %16.6g %s\n", spec.Name, v.Value, v.Unit)
	}
}
