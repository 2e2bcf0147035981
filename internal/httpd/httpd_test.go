package httpd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
)

var (
	dsOnce sync.Once
	dsVal  *prefix2org.Dataset
	dsErr  error
)

// dataset builds one shared synthetic world for the whole package — the
// pipeline run is the expensive part, the handlers under test are not.
func dataset(t testing.TB) *prefix2org.Dataset {
	t.Helper()
	ds, err := datasetErr()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// datasetErr is the error-returning form for Example functions, which
// have no testing.TB to fail on.
func datasetErr() (*prefix2org.Dataset, error) {
	dsOnce.Do(func() {
		w, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			dsErr = err
			return
		}
		dir, err := os.MkdirTemp("", "p2o-httpd-test")
		if err != nil {
			dsErr = err
			return
		}
		// The Dataset is not incremental: nothing reads dir after the build.
		defer os.RemoveAll(dir)
		if err := w.WriteDir(dir); err != nil {
			dsErr = err
			return
		}
		dsVal, dsErr = prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	})
	return dsVal, dsErr
}

// get drives one request through the Handler and decodes the body.
func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: body is not JSON: %v\n%s", path, err, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type = %q, want application/json", path, ct)
	}
	return rr.Code, body
}

// errCode digs the error envelope's code out of a decoded body.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func TestAddrEndpoint(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	addr := ds.Records[0].Prefix.Addr()
	want, ok := ds.LookupAddr(addr)
	if !ok {
		t.Fatalf("dataset does not cover its own record base %v", addr)
	}

	code, body := get(t, h, "/v1/addr/"+addr.String())
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["type"] != "addr" || body["outcome"] != "match" || body["query"] != addr.String() {
		t.Errorf("envelope mismatch: %v", body)
	}
	if body["snapshot_version"] != float64(1) {
		t.Errorf("snapshot_version = %v, want 1", body["snapshot_version"])
	}
	rec, _ := body["record"].(map[string]any)
	if rec == nil {
		t.Fatalf("no record in %v", body)
	}
	if rec["prefix"] != want.Prefix.String() || rec["direct_owner"] != want.DirectOwner || rec["final_cluster"] != want.FinalCluster {
		t.Errorf("record mismatch: got %v, want prefix=%s owner=%s cluster=%s",
			rec, want.Prefix, want.DirectOwner, want.FinalCluster)
	}
}

func TestPrefixEndpointExact(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	p := ds.Records[0].Prefix

	code, body := get(t, h, "/v1/prefix/"+p.String())
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["outcome"] != "match" || body["type"] != "prefix" {
		t.Errorf("envelope mismatch: %v", body)
	}
}

func TestPrefixEndpointCoveringFallback(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()

	// A strictly-more-specific sub-prefix of a record that is not itself
	// a record: the covering fallback must answer with the parent.
	var sub netip.Prefix
	for i := range ds.Records {
		p := ds.Records[i].Prefix
		if p.Bits() >= p.Addr().BitLen() {
			continue
		}
		cand := netip.PrefixFrom(p.Addr(), p.Bits()+1)
		if _, exact := ds.Lookup(cand); !exact {
			sub = cand
			break
		}
	}
	if !sub.IsValid() {
		t.Skip("no non-record sub-prefix in synthetic world")
	}

	code, body := get(t, h, "/v1/prefix/"+sub.String())
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["outcome"] != "covering" {
		t.Errorf("outcome = %v, want covering", body["outcome"])
	}
	rec, _ := body["record"].(map[string]any)
	if rec == nil || rec["prefix"] == sub.String() {
		t.Errorf("covering answer should name the parent prefix, got %v", rec)
	}
}

func TestOrgEndpoint(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	var id string
	for i := range ds.Records {
		if ds.Records[i].FinalCluster != "" {
			id = ds.Records[i].FinalCluster
			break
		}
	}
	if id == "" {
		t.Fatal("no record with a final cluster")
	}
	want, ok := ds.ClusterByID(id)
	if !ok {
		t.Fatalf("ClusterByID(%q) missing", id)
	}

	code, body := get(t, h, "/v1/org/"+id)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	c, _ := body["cluster"].(map[string]any)
	if c == nil || c["id"] != want.ID {
		t.Errorf("cluster mismatch: %v, want id %s", c, want.ID)
	}

	// The same cluster must also resolve by any exact owner name.
	if len(want.OwnerNames) > 0 {
		code, body = get(t, h, "/v1/org/"+url.PathEscape(want.OwnerNames[0]))
		if code != http.StatusOK {
			t.Fatalf("by owner name: status = %d, body %v", code, body)
		}
		if c, _ := body["cluster"].(map[string]any); c == nil || c["id"] != want.ID {
			t.Errorf("by owner name: cluster %v, want id %s", c, want.ID)
		}
	}
}

func TestMalformedInputs(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	cases := []struct {
		path string
		code int
		err  string
	}{
		{"/v1/addr/not-an-ip", http.StatusBadRequest, "bad_request"},
		{"/v1/addr/300.1.2.3", http.StatusBadRequest, "bad_request"},
		{"/v1/prefix/300.1.2.3/8", http.StatusBadRequest, "bad_request"},
		{"/v1/prefix/1.2.3.4", http.StatusBadRequest, "bad_request"},
		{"/v1/org/", http.StatusBadRequest, "bad_request"},
		{"/v1/addr/192.0.2.1", http.StatusNotFound, "no_match"},
		{"/v1/prefix/192.0.2.0/24", http.StatusNotFound, "no_match"},
		{"/v1/org/Totally Unknown Org", http.StatusNotFound, "no_match"},
		{"/nope", http.StatusNotFound, "not_found"},
		{"/v1/addr/", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		code, body := get(t, h, strings.ReplaceAll(tc.path, " ", "%20"))
		if code != tc.code {
			t.Errorf("GET %s: status = %d, want %d (%v)", tc.path, code, tc.code, body)
			continue
		}
		if got := errCode(t, body); got != tc.err {
			t.Errorf("GET %s: error code = %q, want %q", tc.path, got, tc.err)
		}
		if body["status"] != float64(tc.code) {
			t.Errorf("GET %s: envelope status = %v, want %d", tc.path, body["status"], tc.code)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/addr/1.2.3.4", nil))
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != http.MethodGet {
		t.Errorf("POST addr: status %d Allow %q", rr.Code, rr.Header().Get("Allow"))
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/bulk", nil))
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET bulk: status %d Allow %q", rr.Code, rr.Header().Get("Allow"))
	}
}

func TestNotReady(t *testing.T) {
	s := New(store.NewPending("test"), DefaultConfig())
	defer s.Close()
	h := s.Handler()
	for _, path := range []string{"/v1/addr/1.2.3.4", "/v1/prefix/1.2.3.0/24", "/v1/org/x"} {
		code, body := get(t, h, path)
		if code != http.StatusServiceUnavailable || errCode(t, body) != "not_ready" {
			t.Errorf("GET %s on pending store: status %d body %v", path, code, body)
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader("1.2.3.4\n")))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("bulk on pending store: status %d", rr.Code)
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	ds := dataset(t)
	st := store.New(&store.Snapshot{Dataset: ds})
	s := New(st, Config{CacheSize: 64})
	defer s.Close()
	h := s.Handler()
	addr := ds.Records[0].Prefix.Addr().String()

	_, first := get(t, h, "/v1/addr/"+addr)
	if s.cache.len() != 1 {
		t.Fatalf("cache len after first query = %d, want 1", s.cache.len())
	}
	_, second := get(t, h, "/v1/addr/"+addr)
	if first["snapshot_version"] != second["snapshot_version"] {
		t.Errorf("cached reply differs: %v vs %v", first, second)
	}

	// Negative answers are cached too.
	get(t, h, "/v1/addr/192.0.2.1")
	if s.cache.len() != 2 {
		t.Errorf("cache len after no_match = %d, want 2", s.cache.len())
	}

	// After a swap the old entries miss on their version, and the
	// refill replaces each in place: the next answer carries the new
	// version and the cache does not grow.
	st.Swap(&store.Snapshot{Dataset: ds})
	_, body := get(t, h, "/v1/addr/"+addr)
	if body["snapshot_version"] != float64(2) {
		t.Errorf("post-swap snapshot_version = %v, want 2", body["snapshot_version"])
	}
	if s.cache.len() != 2 {
		t.Errorf("cache len after post-swap refill = %d, want 2 (stale entry replaced in place)", s.cache.len())
	}
}

// TestEveryRequestCounted: a query is counted once per request, cache
// hit or miss. The recorder is synchronous, so the counts have landed
// when ServeHTTP returns.
func TestEveryRequestCounted(t *testing.T) {
	ds := dataset(t)
	h := New(store.New(&store.Snapshot{Dataset: ds}), Config{CacheSize: 64}).Handler()
	const addrKey = `httpd_queries_total{type="addr"}`
	before := obs.Default().Snapshot().Counters
	path := "/v1/addr/" + ds.Records[0].Prefix.Addr().String()
	for i := 0; i < 10; i++ {
		if code, body := get(t, h, path); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %v", path, code, body)
		}
	}
	after := obs.Default().Snapshot().Counters
	if d := after[addrKey] - before[addrKey]; d != 10 {
		t.Errorf("%s moved by %d over 10 requests, want 10", addrKey, d)
	}
	if d := after["httpd_cache_hits_total"] - before["httpd_cache_hits_total"]; d != 9 {
		t.Errorf("httpd_cache_hits_total moved by %d over 10 requests, want 9", d)
	}
}

func TestCacheVersionGuard(t *testing.T) {
	// An entry is served only to a request that pinned the snapshot it
	// was rendered from.
	c := newResponseCache(16)
	c.put("addr/1.2.3.4", &cacheEntry{version: 1, status: 200, body: []byte("{}")})
	if _, ok := c.get("addr/1.2.3.4", 2); ok {
		t.Fatal("version-mismatched entry served")
	}
	if _, ok := c.get("addr/1.2.3.4", 1); !ok {
		t.Fatal("entry missed at the version it was rendered from")
	}
}

// TestCacheStaleRefillKeepsSlot is the ring-slot witness: a stale miss
// followed by its refill must occupy the key's one slot, or the ring
// later evicts the fresh entry through the leftover copy of its key.
func TestCacheStaleRefillKeepsSlot(t *testing.T) {
	c := newResponseCache(2 * cacheShardCount) // two slots per shard
	k := "addr/10.0.0.1"
	var k2 string
	for i := 0; k2 == ""; i++ {
		if cand := "addr/10.0.1." + strconv.Itoa(i); c.shard(cand) == c.shard(k) {
			k2 = cand
		}
	}
	entry := func(v uint64) *cacheEntry { return &cacheEntry{version: v, status: 200, body: []byte("{}")} }

	evictions := mCacheEvictions.Value()
	c.put(k, entry(1))
	if _, ok := c.get(k, 2); ok {
		t.Fatal("v1 entry served at v2")
	}
	c.put(k, entry(2))
	c.put(k2, entry(2))
	if _, ok := c.get(k, 2); !ok {
		t.Errorf("refilled entry evicted by the shard's second key (evictions +%d)", mCacheEvictions.Value()-evictions)
	}
	if d := mCacheEvictions.Value() - evictions; d != 0 {
		t.Errorf("evictions moved by %d with the shard's two slots holding two keys, want 0", d)
	}
}

func TestCacheDisabled(t *testing.T) {
	ds := dataset(t)
	s := New(store.New(&store.Snapshot{Dataset: ds}), Config{CacheSize: 0})
	defer s.Close()
	if s.cache != nil {
		t.Fatal("CacheSize 0 should disable the cache")
	}
	code, _ := get(t, s.Handler(), "/v1/addr/"+ds.Records[0].Prefix.Addr().String())
	if code != http.StatusOK {
		t.Fatalf("uncached query failed: %d", code)
	}
}

// bulkPost drives one bulk request and splits the NDJSON response.
func bulkPost(t *testing.T, h http.Handler, in string) (*httptest.ResponseRecorder, []map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(in)))
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(rr.Body.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bulk output line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return rr, out
}

func TestBulkBasic(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	addr := ds.Records[0].Prefix.Addr().String()
	want, _ := ds.LookupAddr(ds.Records[0].Prefix.Addr())

	in := "\"" + addr + "\"\n" + // JSON string form
		"{\"q\":\"" + addr + "\"}\n" + // object form
		addr + "\n" + // bare token form
		"\n" + // blank line: skipped, no output
		"192.0.2.1\n" + // unrouted: no_match
		"not-an-ip\n" // bad_input
	rr, out := bulkPost(t, h, in)

	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if v := rr.Header().Get("X-P2O-Snapshot"); v != "1" {
		t.Errorf("X-P2O-Snapshot = %q, want 1", v)
	}
	if len(out) != 5 {
		t.Fatalf("got %d output lines, want 5:\n%s", len(out), rr.Body.String())
	}
	for i := 0; i < 3; i++ {
		if out[i]["q"] != addr || out[i]["outcome"] != "match" {
			t.Errorf("line %d: %v, want match for %s", i, out[i], addr)
		}
		if out[i]["prefix"] != want.Prefix.String() || out[i]["direct_owner"] != want.DirectOwner || out[i]["final_cluster"] != want.FinalCluster {
			t.Errorf("line %d record fields: %v", i, out[i])
		}
	}
	if out[3]["outcome"] != "no_match" || out[3]["q"] != "192.0.2.1" {
		t.Errorf("line 3: %v, want no_match", out[3])
	}
	if out[4]["outcome"] != "bad_input" || out[4]["q"] != "not-an-ip" {
		t.Errorf("line 4: %v, want bad_input", out[4])
	}
}

func TestBulkLineForms(t *testing.T) {
	ds := dataset(t)
	h := NewStatic(ds).Handler()
	addr := ds.Records[0].Prefix.Addr().String()

	// Exotic-but-legal object spellings route through the slow path and
	// still answer; garbage echoes stay valid JSON.
	in := "{\"note\":\"x\",\"q\":\"" + addr + "\"}\n" +
		"{  \"q\" :  \"" + addr + "\" }\n" +
		"{\"q\":\"\\u0031.2.3.4\"}\n" + // escaped form forces encoding/json
		"{\"q\":42}\n" + // wrong type: bad_input
		"\"unterminated\n" + // broken JSON string: bad_input
		"{\"other\":\"field\"}\n" // no q member: bad_input
	rr, out := bulkPost(t, h, in)
	if len(out) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(out), rr.Body.String())
	}
	if out[0]["outcome"] != "match" || out[1]["outcome"] != "match" {
		t.Errorf("object forms: %v / %v", out[0], out[1])
	}
	if out[2]["q"] != "1.2.3.4" {
		t.Errorf("escaped q decoded to %v, want 1.2.3.4", out[2]["q"])
	}
	for i := 3; i < 6; i++ {
		if out[i]["outcome"] != "bad_input" {
			t.Errorf("line %d: %v, want bad_input", i, out[i])
		}
	}
	// The IPv4-mapped spelling of a routed address matches like the
	// plain one, and echoes as sent.
	_, out = bulkPost(t, h, "::ffff:"+addr+"\n"+addr+"\n")
	if len(out) != 2 || out[0]["outcome"] != "match" || out[0]["q"] != "::ffff:"+addr || out[0]["prefix"] != out[1]["prefix"] {
		t.Errorf("4-in-6 line: %v, want the match of %v", out[0], out[1])
	}
}

func TestBulkTooManyLines(t *testing.T) {
	ds := dataset(t)
	s := New(store.New(&store.Snapshot{Dataset: ds}), Config{BulkMaxLines: 2, BulkFlushEvery: 1})
	defer s.Close()
	addr := ds.Records[0].Prefix.Addr().String()

	in := strings.Repeat(addr+"\n", 5)
	rr, out := bulkPost(t, s.Handler(), in)
	if len(out) != 3 {
		t.Fatalf("got %d lines, want 2 results + 1 error:\n%s", len(out), rr.Body.String())
	}
	e, _ := out[2]["error"].(map[string]any)
	if e == nil || e["code"] != "too_many_lines" {
		t.Errorf("terminal line: %v, want too_many_lines envelope", out[2])
	}
	if out[2]["status"] != float64(http.StatusRequestEntityTooLarge) {
		t.Errorf("terminal status = %v, want 413", out[2]["status"])
	}
}

func TestBulkPinsOneSnapshot(t *testing.T) {
	// The version header and every line must come from the snapshot
	// current at request start, even if a swap lands mid-request. The
	// handler pins once, so simply verify the header tracks Swap.
	ds := dataset(t)
	st := store.New(&store.Snapshot{Dataset: ds})
	s := New(st, DefaultConfig())
	defer s.Close()
	addr := ds.Records[0].Prefix.Addr().String()

	rr, _ := bulkPost(t, s.Handler(), addr+"\n")
	if v := rr.Header().Get("X-P2O-Snapshot"); v != "1" {
		t.Fatalf("X-P2O-Snapshot = %q, want 1", v)
	}
	st.Swap(&store.Snapshot{Dataset: ds})
	rr, _ = bulkPost(t, s.Handler(), addr+"\n")
	if v := rr.Header().Get("X-P2O-Snapshot"); v != "2" {
		t.Fatalf("after swap: X-P2O-Snapshot = %q, want 2", v)
	}
}

// TestBulkStalledClientReleasesPin: a bulk client that sends its
// headers and one line, then stalls, keeps the snapshot it pinned live
// across a swap only until the stall bound; then its stream ends with a
// read_error line and the retired snapshot is released.
func TestBulkStalledClientReleasesPin(t *testing.T) {
	defer func(d time.Duration) { bulkStallTimeout = d }(bulkStallTimeout)
	bulkStallTimeout = time.Second
	ds := dataset(t)
	st := store.New(&store.Snapshot{Dataset: ds})
	s := New(st, Config{BulkFlushEvery: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := obs.Default().Gauge("store_snapshots_live")
	base := live.Value() // st's current snapshot among them

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The headers promise a body far longer than the one line sent.
	fmt.Fprintf(conn, "POST /v1/bulk HTTP/1.1\r\nHost: p2o\r\nContent-Length: 1000\r\n\r\n%s\n", ds.Records[0].Prefix.Addr())
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewReader(resp.Body)
	// The first result line is flushed by a handler holding its pin.
	if line, err := body.ReadString('\n'); err != nil || !strings.Contains(line, `"outcome":"match"`) {
		t.Fatalf("first result line %q, %v", line, err)
	}
	stalled := time.Now()
	st.Swap(&store.Snapshot{Dataset: ds})
	if got := live.Value(); got != base+1 {
		t.Fatalf("after the swap: store_snapshots_live = %v, want %v (the current snapshot and the one the stalled stream pins)", got, base+1)
	}
	for deadline := time.Now().Add(10 * time.Second); live.Value() != base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the stalled stream still pins its snapshot: store_snapshots_live = %v, want %v", live.Value(), base)
		}
	}
	if held := time.Since(stalled); held < bulkStallTimeout/2 {
		t.Errorf("the retired snapshot was released %v after the stall, before the %v bound", held, bulkStallTimeout)
	}
	rest, _ := io.ReadAll(body)
	if !strings.Contains(string(rest), `"read_error"`) {
		t.Errorf("the stalled stream ended with %q, want a read_error line", rest)
	}
}

func TestStartServesOverTCP(t *testing.T) {
	ds := dataset(t)
	s := NewStatic(ds)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/v1/addr/" + ds.Records[0].Prefix.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["outcome"] != "match" {
		t.Errorf("outcome = %v", body["outcome"])
	}
}

func TestExtractQueryAliasing(t *testing.T) {
	// Fast paths must alias the input (the zero-alloc contract); only
	// escaped input may allocate.
	line := []byte(`{"q":"1.2.3.4"}`)
	q, ok := extractQuery(line)
	if !ok || string(q) != "1.2.3.4" {
		t.Fatalf("extractQuery = %q, %v", q, ok)
	}
	if &q[0] != &line[6] {
		t.Error("object fast path copied instead of aliasing")
	}
}
