package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestQuantileWindowBasics(t *testing.T) {
	w := NewQuantileWindow(100)
	if got := w.Quantile(0.5); got != 0 {
		t.Errorf("empty window p50 = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := w.Quantile(tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	// The window rolls: 100 more observations of a new level evict the
	// old ones entirely.
	for i := 0; i < 100; i++ {
		w.Observe(1000)
	}
	if got := w.Quantile(0.5); got != 1000 {
		t.Errorf("rolled window p50 = %v, want 1000", got)
	}
	if w.Count() != 200 {
		t.Errorf("count = %d, want 200", w.Count())
	}
}

func TestQuantileWindowConcurrent(t *testing.T) {
	w := NewQuantileWindow(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(0.005)
				_ = w.Quantile(0.99)
			}
		}()
	}
	wg.Wait()
	if got := w.Quantile(0.5); got != 0.005 {
		t.Errorf("p50 = %v, want 0.005", got)
	}
}

func TestQuantileWindowObserveZeroAlloc(t *testing.T) {
	w := NewQuantileWindow(256)
	if n := testing.AllocsPerRun(200, func() { w.Observe(0.001) }); n != 0 {
		t.Errorf("Observe allocates %.1f times per call, want 0", n)
	}
}

// newTestTelemetry wires a telemetry to instruments on reg: counters
// for types "addr" and "org" and for outcome "no_match".
func newTestTelemetry(reg *Registry) *QueryTelemetry {
	return NewQueryTelemetry(QueryTelemetryConfig{
		Latency:       reg.Histogram("tq_seconds", DefBuckets),
		SLOViolations: reg.Counter("tq_slo_violations_total"),
		Types: map[string]*Counter{
			"addr": reg.Counter(Label("tq_queries_total", "type", "addr")),
			"org":  reg.Counter(Label("tq_queries_total", "type", "org")),
		},
		Outcomes: map[string]*Counter{"no_match": reg.Counter("tq_no_match_total")},
	})
}

func TestQueryTelemetrySampling(t *testing.T) {
	tel := newTestTelemetry(NewRegistry())
	tel.SetSampleEvery(4)
	var sampled int
	for i := 0; i < 16; i++ {
		sp := tel.StartSpan()
		if sp != nil {
			sampled++
		}
		tel.Finish(sp, QueryInfo{Start: time.Now(), Text: "q", Type: "addr", Outcome: "match"})
	}
	if sampled != 4 {
		t.Errorf("sampled %d of 16 at 1-in-4, want 4", sampled)
	}
	tel.SetSampleEvery(0)
	if sp := tel.StartSpan(); sp != nil {
		t.Error("sampling disabled but got a span")
	}
}

// TestQueryTelemetryUnsampledZeroAlloc pins the tentpole contract: with
// sampling off (or a query not selected), StartSpan + Finish — the full
// per-query telemetry overhead including the type and outcome
// counters, the quantile window, the latency histogram, and the SLO
// comparison — allocates nothing, also when queries answered without a
// snapshot (version 0, such as overlong whois lines) interleave with
// served ones.
func TestQueryTelemetryUnsampledZeroAlloc(t *testing.T) {
	tel := newTestTelemetry(NewRegistry())
	tel.SetSampleEvery(0)
	tel.SetSLOTarget(time.Millisecond)
	info := QueryInfo{Start: time.Now(), Text: "198.51.100.7", Type: "addr", Outcome: "no_match", SnapshotVersion: 3}
	unserved := QueryInfo{Start: time.Now(), Text: "x", Type: "bad", Outcome: "error"}
	if n := testing.AllocsPerRun(200, func() {
		sp := tel.StartSpan()
		sp.Mark(PhaseParse)
		tel.Finish(sp, info)
		tel.Finish(nil, unserved)
	}); n != 0 {
		t.Errorf("unsampled query path allocates %.1f times per query, want 0", n)
	}
}

// TestQueryTelemetryFinishCounts: Finish counts a query's type and
// outcome once each, skips a type or outcome that has no counter, and
// counts nothing by snapshot version.
func TestQueryTelemetryFinishCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries []QueryInfo
		want    map[string]int64 // every nonzero counter on the page
	}{
		{"type and outcome", []QueryInfo{{Type: "addr", Outcome: "no_match", SnapshotVersion: 2}}, map[string]int64{
			`tq_queries_total{type="addr"}`: 1, "tq_no_match_total": 1}},
		{"outcome without counter", []QueryInfo{{Type: "org", Outcome: "match", SnapshotVersion: 2}}, map[string]int64{
			`tq_queries_total{type="org"}`: 1}},
		{"type without counter", []QueryInfo{{Type: "bulk", Outcome: "no_match"}}, map[string]int64{
			"tq_no_match_total": 1}},
		{"neither", []QueryInfo{{Type: "bad", Outcome: "error", SnapshotVersion: 7}}, map[string]int64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tel := newTestTelemetry(reg)
			for _, info := range tc.queries {
				info.Start = time.Now()
				tel.Finish(nil, info)
			}
			got := map[string]int64{}
			for name, v := range reg.Snapshot().Counters {
				if v != 0 {
					got[name] = v
				}
			}
			if len(got) != len(tc.want) {
				t.Errorf("counters = %v, want %v", got, tc.want)
			}
			for name, v := range tc.want {
				if got[name] != v {
					t.Errorf("%s = %d, want %d (all: %v)", name, got[name], v, got)
				}
			}
		})
	}
}

func TestQueryTelemetrySLOAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	tel := newTestTelemetry(reg)
	tel.SetSampleEvery(0)
	tel.SetSLOTarget(10 * time.Millisecond)
	now := time.Now()
	// 9 fast queries (forged start 1ms ago), 1 slow (forged 50ms ago).
	for i := 0; i < 9; i++ {
		tel.Finish(nil, QueryInfo{Start: now.Add(-time.Millisecond), Type: "addr", Outcome: "match"})
	}
	tel.Finish(nil, QueryInfo{Start: now.Add(-50 * time.Millisecond), Type: "addr", Outcome: "match"})
	if got := reg.Counter("tq_slo_violations_total").Value(); got != 1 {
		t.Errorf("slo violations = %d, want 1", got)
	}
	if got := reg.Histogram("tq_seconds", DefBuckets).Count(); got != 10 {
		t.Errorf("latency histogram count = %d, want 10", got)
	}
	p50, p99 := tel.Quantile(0.5), tel.Quantile(0.99)
	if p50 < 0.001 || p50 > 0.040 {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 < 0.050 {
		t.Errorf("p99 = %v, want >= 50ms", p99)
	}
	if math.IsNaN(p50) || math.IsNaN(p99) {
		t.Error("NaN quantile")
	}
}

func TestQueryTelemetrySlowCaptureAndDebugHandler(t *testing.T) {
	tel := newTestTelemetry(NewRegistry())
	tel.SetSampleEvery(1)
	tel.SetSlowThreshold(20 * time.Millisecond)
	now := time.Now()

	// A fast sampled query: recent ring only.
	sp := tel.StartSpan()
	sp.Mark(PhaseParse)
	sp.Mark(PhaseLookup)
	tel.Finish(sp, QueryInfo{Start: now, Text: "fast", Type: "addr", Outcome: "match", SnapshotVersion: 2})
	// A slow one (forged start): both rings, with phases.
	sp = tel.StartSpan()
	sp.Mark(PhaseLookup)
	tel.Finish(sp, QueryInfo{Start: now.Add(-100 * time.Millisecond), Text: "slow", Type: "prefix", Outcome: "no_match", SnapshotVersion: 2})

	recent, slow := tel.Recent(), tel.Slow()
	if len(recent) != 2 {
		t.Fatalf("recent = %d records, want 2", len(recent))
	}
	if recent[0].Query != "slow" || recent[1].Query != "fast" {
		t.Errorf("recent order = %q,%q, want newest first", recent[0].Query, recent[1].Query)
	}
	if recent[0].PhasesUS == nil {
		t.Error("sampled record lost its phase timings")
	}
	if len(slow) != 1 || slow[0].Query != "slow" || slow[0].DurationUS < 100_000 {
		t.Errorf("slow ring = %+v", slow)
	}

	// Ring stays bounded, newest first.
	for i := 0; i < recentCapacity+6; i++ {
		sp := tel.StartSpan()
		tel.Finish(sp, QueryInfo{Start: now, Text: "fill", Type: "org", Outcome: "match"})
	}
	if got := tel.Recent(); len(got) != recentCapacity || got[0].Query != "fill" {
		t.Errorf("bounded ring = %d records, first %q", len(got), got[0].Query)
	}

	srv := httptest.NewServer(tel.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		QuantilesMS map[string]float64 `json:"rolling_quantiles_ms"`
		Recent      []QueryRecord      `json:"recent"`
		Slow        []QueryRecord      `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Recent) != recentCapacity || len(page.Slow) != 1 {
		t.Errorf("debug page: %d recent, %d slow", len(page.Recent), len(page.Slow))
	}
	if _, ok := page.QuantilesMS["p99"]; !ok {
		t.Errorf("debug page missing rolling quantiles: %v", page.QuantilesMS)
	}
}

func TestQuerySpanPhases(t *testing.T) {
	tel := newTestTelemetry(NewRegistry())
	tel.SetSampleEvery(1)
	sp := tel.StartSpan()
	if sp == nil {
		t.Fatal("1-in-1 sampling returned no span")
	}
	time.Sleep(2 * time.Millisecond)
	sp.Mark(PhaseParse)
	time.Sleep(time.Millisecond)
	sp.Mark(PhaseLookup)
	sp.Mark(PhaseWrite)
	if sp.Phase(PhaseParse) < 2*time.Millisecond {
		t.Errorf("parse phase = %v, want >= 2ms", sp.Phase(PhaseParse))
	}
	if sp.Phase(PhaseLookup) < time.Millisecond {
		t.Errorf("lookup phase = %v, want >= 1ms", sp.Phase(PhaseLookup))
	}
	// Nil-safety: all span methods must be callable through a nil
	// receiver (the unsampled path).
	var nilSpan *QuerySpan
	nilSpan.Mark(PhaseWrite)
	if nilSpan.Phase(PhaseWrite) != 0 {
		t.Error("nil span phase != 0")
	}
}
