package whoisd

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/obs"
)

// resetTelemetry returns the package telemetry to daemon defaults after
// a test that tuned it; the instance is shared package state.
func resetTelemetry(t *testing.T) {
	t.Cleanup(func() {
		telemetry.SetSampleEvery(16)
		telemetry.SetSLOTarget(0)
		telemetry.SetSlowThreshold(0)
	})
}

// TestTelemetryEndToEnd drives real TCP queries with sampling at 1-in-1
// and asserts the whole telemetry surface moves: rolling quantile
// gauges, SLO violations, and the /debug/queries rings, whose records
// name the snapshot that answered.
func TestTelemetryEndToEnd(t *testing.T) {
	resetTelemetry(t)
	telemetry.SetSampleEvery(1)
	telemetry.SetSLOTarget(time.Nanosecond) // every query violates
	ds := dataset(t)
	srv := NewStatic(ds)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	violationsBefore := mSLOViolations.Value()
	recentBefore := len(telemetry.Recent())
	query := func(q string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(q + "\r\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatal(err)
		}
	}
	rec := &ds.Records[0]
	query(rec.Prefix.String())
	query(rec.Prefix.Addr().String())
	query(rec.DirectOwner)

	// TCP handling is asynchronous relative to the client seeing EOF;
	// wait for the accounting to land.
	deadline := time.Now().Add(5 * time.Second)
	for len(telemetry.Recent()) < recentBefore+3 {
		if time.Now().After(deadline) {
			t.Fatalf("recent ring has %d records, want >= %d", len(telemetry.Recent()), recentBefore+3)
		}
		time.Sleep(time.Millisecond)
	}

	if d := mSLOViolations.Value() - violationsBefore; d < 3 {
		t.Errorf("slo violations moved by %d, want >= 3", d)
	}
	if q := telemetry.Quantile(0.5); q <= 0 {
		t.Errorf("rolling p50 = %v, want > 0", q)
	}
	newest := telemetry.Recent()[0]
	if newest.SnapshotVersion != 1 {
		t.Errorf("snapshot version on record = %d, want 1", newest.SnapshotVersion)
	}
	if newest.Outcome != "match" {
		t.Errorf("outcome = %q, want match", newest.Outcome)
	}
	if len(newest.PhasesUS) == 0 {
		t.Error("sampled record carries no phase timings")
	}

	// The scrape surface: the quantile gauges.
	snap := obs.Default().Snapshot()
	if v, ok := snap.Gauges["whoisd_query_seconds_p50"]; !ok || v <= 0 {
		t.Errorf("whoisd_query_seconds_p50 gauge = %v ok=%v, want > 0", v, ok)
	}

	// /debug/queries serves the same rings as JSON.
	w := httptest.NewRecorder()
	telemetry.DebugHandler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries", nil))
	var page struct {
		Recent []obs.QueryRecord `json:"recent"`
	}
	if err := json.NewDecoder(w.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Recent) < 3 {
		t.Errorf("/debug/queries recent = %d records, want >= 3", len(page.Recent))
	}
}

// TestSlowQueryCaptured pins the slow-query path: with a tiny threshold
// every query is slow, so it must land in the slow ring even when
// sampling is off.
func TestSlowQueryCaptured(t *testing.T) {
	resetTelemetry(t)
	telemetry.SetSampleEvery(0) // sampling off: slow capture must still work
	telemetry.SetSlowThreshold(time.Nanosecond)
	ds := dataset(t)
	srv := NewStatic(ds)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := len(telemetry.Slow())
	q := ds.Records[0].Prefix.String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(q + "\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(telemetry.Slow()) <= before {
		if time.Now().After(deadline) {
			t.Fatalf("slow ring did not grow: %d", len(telemetry.Slow()))
		}
		time.Sleep(time.Millisecond)
	}
	if got := telemetry.Slow()[0].Query; got != q {
		t.Errorf("slow record query = %q, want %q", got, q)
	}
}

// TestQueryAccountingZeroAlloc is the serve-path allocation guard for
// the telemetry layer: with sampling off, the per-query accounting
// (span start, then a finish that moves the type, outcome and
// snapshot-version counters, the quantile window, the histogram, and
// the SLO check) must not allocate. The response formatting
// itself is excluded — fmt-based record rendering has its own cost —
// by answering an empty query into a pre-grown buffer.
func TestQueryAccountingZeroAlloc(t *testing.T) {
	resetTelemetry(t)
	telemetry.SetSampleEvery(0)
	telemetry.SetSLOTarget(time.Millisecond)
	ds := dataset(t)
	srv := NewStatic(ds)
	start := time.Now()
	if n := testing.AllocsPerRun(200, func() {
		sp := telemetry.StartSpan()
		sp.Mark(obs.PhaseLookup)
		telemetry.Finish(sp, obs.QueryInfo{Start: start, Type: "addr", Outcome: "no_match", SnapshotVersion: srv.store.Current().Version})
	}); n != 0 {
		t.Errorf("unsampled query accounting allocates %.1f times per query, want 0", n)
	}
}

// BenchmarkAnswerAddr measures the full serve path for an address query
// — snapshot load, LPM lookup, record rendering, telemetry accounting —
// minus the socket.
func BenchmarkAnswerAddr(b *testing.B) {
	telemetry.SetSampleEvery(16)
	if err := dsWorld(); err != nil {
		b.Fatal(err)
	}
	ds := dsVal
	srv := NewStatic(ds)
	addr := ds.Records[0].Prefix.Addr()
	q := addr.String()
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.answer(nil, bw, q)
	}
}

// BenchmarkAnswerOverTCP measures queries end to end over loopback TCP
// with default telemetry sampling: the number the whois-dial workload
// of the end-to-end benchmark reproduces from outside the process.
func BenchmarkAnswerOverTCP(b *testing.B) {
	telemetry.SetSampleEvery(16)
	if err := dsWorld(); err != nil {
		b.Fatal(err)
	}
	srv := NewStatic(dsVal)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	q := []byte(dsVal.Records[0].Prefix.Addr().String() + "\r\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(q); err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, conn); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// dsWorld builds the shared test dataset outside a testing.T context so
// benchmarks can use it too.
func dsWorld() error {
	dsOnce.Do(buildSharedDataset)
	return dsErr
}
