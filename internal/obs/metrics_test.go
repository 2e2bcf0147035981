package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine: the registry itself must
			// be race-safe, not just the instrument.
			c := reg.Counter("test_total")
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 1.5+8*500 {
		t.Errorf("gauge after concurrent adds = %v, want %v", g.Value(), 1.5+8*500)
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+2; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds/counts = %v/%v", bounds, counts)
	}
	// le semantics: 0.005 and 0.01 land in le=0.01; 0.05 in le=0.1; 0.5
	// in le=1; 2 overflows to +Inf.
	want := []int64{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_seconds", DefBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(i%4) * 0.01)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8*500 {
		t.Errorf("count = %d, want %d", h.Count(), 8*500)
	}
}

func TestRegistryGetOrCreateReturnsSameInstrument(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter returned distinct instances for one name")
	}
	if reg.Histogram("h", []float64{1}) != reg.Histogram("h", []float64{2}) {
		t.Error("Histogram returned distinct instances for one name")
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total", "registry", "arin"); got != `x_total{registry="arin"}` {
		t.Errorf("Label = %q", got)
	}
	if got := Label("x_total", "a", "1", "b", "2"); got != `x_total{a="1",b="2"}` {
		t.Errorf("Label = %q", got)
	}
	if got := Label("bare"); got != "bare" {
		t.Errorf("Label = %q", got)
	}
}

func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`queries_total{type="prefix"}`).Add(3)
	reg.Counter("errors_total").Inc()
	reg.Gauge("vrps").Set(910)
	h := reg.Histogram("query_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `errors_total 1
queries_total{type="prefix"} 3
query_seconds_bucket{le="0.01"} 2
query_seconds_bucket{le="0.1"} 3
query_seconds_bucket{le="+Inf"} 3
query_seconds_sum 0.060000000000000005
query_seconds_count 3
vrps 910
`
	if b.String() != want {
		t.Errorf("WriteText output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteTextHistogramOrderGolden pins the histogram exposition
// contract: cumulative buckets in ascending bound order — numeric order,
// not lexical (le="10" after le="2") — with the +Inf bucket terminal,
// followed by _sum and _count.
func TestWriteTextHistogramOrderGolden(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("reload_seconds", []float64{0.5, 2, 10})
	for _, v := range []float64{0.25, 1, 5, 60} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `reload_seconds_bucket{le="0.5"} 1
reload_seconds_bucket{le="2"} 2
reload_seconds_bucket{le="10"} 3
reload_seconds_bucket{le="+Inf"} 4
reload_seconds_sum 66.25
reload_seconds_count 4
`
	if b.String() != want {
		t.Errorf("WriteText output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 1.5
	reg.GaugeFunc("rolling_p99_seconds", func() float64 { return v })
	if got := reg.Snapshot().Gauges["rolling_p99_seconds"]; got != 1.5 {
		t.Errorf("gauge func snapshot = %v, want 1.5", got)
	}
	v = 2.5
	if got := reg.Snapshot().Gauges["rolling_p99_seconds"]; got != 2.5 {
		t.Errorf("gauge func snapshot = %v, want 2.5 after update", got)
	}
	// First registration wins; a GaugeFunc may itself read the registry
	// without deadlocking the scrape.
	reg.GaugeFunc("rolling_p99_seconds", func() float64 { return -1 })
	reg.GaugeFunc("derived_total", func() float64 {
		return float64(reg.Counter("base_total").Value())
	})
	reg.Counter("base_total").Add(7)
	snap := reg.Snapshot()
	if got := snap.Gauges["rolling_p99_seconds"]; got != 2.5 {
		t.Errorf("second registration overrode the first: %v", got)
	}
	if got := snap.Gauges["derived_total"]; got != 7 {
		t.Errorf("registry-reading gauge func = %v, want 7", got)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rolling_p99_seconds 2.5") {
		t.Errorf("text exposition missing gauge func:\n%s", b.String())
	}
}

// TestRegistryGetOrCreateHammer races get-or-create across instrument
// kinds and labeled names, as instruments registered on first use do
// under live traffic. Run under -race by make verify;
// every goroutine must land on the same instrument per name.
func TestRegistryGetOrCreateHammer(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker, names = 16, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := versions[i%names]
				reg.Counter(Label("hammer_total", "version", v)).Inc()
				reg.Gauge(Label("hammer_gauge", "version", v)).Set(float64(i))
				reg.Histogram("hammer_seconds", DefBuckets).Observe(0.001)
				if i%50 == 0 {
					reg.GaugeFunc("hammer_fn", func() float64 { return 1 })
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, v := range versions[:names] {
		total += reg.Counter(Label("hammer_total", "version", v)).Value()
	}
	if total != workers*perWorker {
		t.Errorf("labeled counters sum to %d, want %d", total, workers*perWorker)
	}
	if got := reg.Histogram("hammer_seconds", DefBuckets).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

var versions = []string{"1", "2", "3", "4", "5", "6", "7", "8"}

func TestMetricsHandlerJSONAndText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Add(7)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["hits_total"] != 7 {
		t.Errorf("json counters = %v", snap.Counters)
	}

	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "hits_total 7") {
		t.Errorf("text body = %q", body)
	}
}

func TestServeAdmin(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("admin_test_total").Inc()
	admin, err := ServeAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	get := func(path string) (int, string) {
		t.Helper()
		c := http.Client{Timeout: 5 * time.Second}
		resp, err := c.Get("http://" + admin.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "admin_test_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}
