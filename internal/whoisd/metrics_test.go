package whoisd

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/obs"
)

// fetchSnapshot reads the admin listener's JSON metrics view.
func fetchSnapshot(t *testing.T, addr string) obs.Snapshot {
	t.Helper()
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsEndToEnd drives the full observability path: a WHOIS query
// against a running server must move the query and latency metrics as
// served by the admin listener's /metrics endpoint.
func TestMetricsEndToEnd(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin, err := obs.ServeAdmin("127.0.0.1:0", obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	// /healthz must answer before any traffic.
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + admin.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	before := fetchSnapshot(t, admin.Addr())

	query := func(q string) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(q + "\r\n")); err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	rec := &ds.Records[0]
	if out := query(rec.Prefix.String()); !strings.Contains(out, "direct-owner:") {
		t.Fatalf("unexpected answer: %q", out)
	}
	if out := query(rec.DirectOwner); !strings.Contains(out, "cluster:") {
		t.Fatalf("unexpected org answer: %q", out)
	}

	after := fetchSnapshot(t, admin.Addr())
	prefixKey := `whoisd_queries_total{type="prefix"}`
	orgKey := `whoisd_queries_total{type="org"}`
	if d := after.Counters[prefixKey] - before.Counters[prefixKey]; d < 1 {
		t.Errorf("prefix query counter moved by %d, want >= 1", d)
	}
	if d := after.Counters[orgKey] - before.Counters[orgKey]; d < 1 {
		t.Errorf("org query counter moved by %d, want >= 1", d)
	}
	hb, ha := before.Histograms["whoisd_query_seconds"], after.Histograms["whoisd_query_seconds"]
	if d := ha.Count - hb.Count; d < 2 {
		t.Errorf("latency histogram count moved by %d, want >= 2", d)
	}
	if ha.Sum < hb.Sum {
		t.Errorf("latency histogram sum went backwards: %v -> %v", hb.Sum, ha.Sum)
	}

	// The text exposition must carry the same counter.
	resp, err = c.Get("http://" + admin.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "whoisd_queries_total") {
		t.Errorf("text /metrics missing whoisd counters:\n%s", body)
	}
}

// TestServeErrorsCounted asserts that a client that connects and sends
// nothing (read failure after deadline is too slow to test; an abrupt
// close is equivalent) is accounted as a serve error, not a query.
func TestServeErrorsCounted(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := mServeErrors.Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close() // no query line at all
	deadline := time.Now().Add(5 * time.Second)
	for mServeErrors.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("serve-error counter never moved")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
