package httpd

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/store"
)

// Server metrics, registered on the process-wide registry so the admin
// listener's /metrics page exposes them.
var (
	mServeErrors   = obs.Default().Counter("httpd_serve_errors_total")
	mSLOViolations = obs.Default().Counter("httpd_slo_violations_total")
	mLatency       = obs.Default().Histogram("httpd_query_seconds", obs.DefBuckets)

	mBulkLinesMatch   = obs.Default().Counter(obs.Label("httpd_bulk_lines_total", "outcome", "match"))
	mBulkLinesNoMatch = obs.Default().Counter(obs.Label("httpd_bulk_lines_total", "outcome", "no_match"))
	mBulkLinesBad     = obs.Default().Counter(obs.Label("httpd_bulk_lines_total", "outcome", "bad_input"))
	mBulkTruncated    = obs.Default().Counter("httpd_bulk_truncated_total")

	mCacheHits      = obs.Default().Counter("httpd_cache_hits_total")
	mCacheMisses    = obs.Default().Counter("httpd_cache_misses_total")
	mCacheEvictions = obs.Default().Counter("httpd_cache_evictions_total")

	logger = obs.Logger("httpd")

	// telemetry accounts every request, cache hit or miss: the
	// counters by type and outcome, the rolling quantile window behind
	// the httpd_query_seconds_p* gauges, SLO tracking, and the sampled
	// QuerySpan rings served at /debug/queries. Daemon flags tune it
	// via Telemetry().
	telemetry = obs.NewQueryTelemetry(obs.QueryTelemetryConfig{
		Latency:       mLatency,
		SLOViolations: mSLOViolations,
		Types: map[string]*obs.Counter{
			daemon.KindAddr.String():   obs.Default().Counter(obs.Label("httpd_queries_total", "type", "addr")),
			daemon.KindPrefix.String(): obs.Default().Counter(obs.Label("httpd_queries_total", "type", "prefix")),
			daemon.KindOrg.String():    obs.Default().Counter(obs.Label("httpd_queries_total", "type", "org")),
			daemon.KindBad.String():    obs.Default().Counter(obs.Label("httpd_queries_total", "type", "bad")),
			"bulk":                     obs.Default().Counter(obs.Label("httpd_queries_total", "type", "bulk")),
		},
		Outcomes: map[string]*obs.Counter{daemon.OutcomeNoMatch: obs.Default().Counter("httpd_no_match_total")},
		Logger:   logger,
	})
)

func init() {
	// Rolling SLO quantiles, computed from the telemetry window at
	// scrape time: gauges on /metrics without any per-request cost
	// beyond the window's atomic store.
	obs.Default().GaugeFunc("httpd_query_seconds_p50", func() float64 { return telemetry.Quantile(0.50) })
	obs.Default().GaugeFunc("httpd_query_seconds_p90", func() float64 { return telemetry.Quantile(0.90) })
	obs.Default().GaugeFunc("httpd_query_seconds_p99", func() float64 { return telemetry.Quantile(0.99) })
	obs.Default().GaugeFunc("httpd_query_seconds_p999", func() float64 { return telemetry.Quantile(0.999) })
}

// Telemetry returns the package's query telemetry: daemons wire the
// -slo-target / -slow-query-threshold / -query-sample flags and mount
// its DebugHandler at /debug/queries.
func Telemetry() *obs.QueryTelemetry { return telemetry }

// Request outcome classes recorded on spans and /debug/queries records,
// beside the resolver's (daemon.OutcomeMatch and friends).
const (
	outcomeWriteError = "write_error"
	outcomeOK         = "ok"        // a bulk stream that completed
	outcomeTruncated  = "truncated" // a bulk stream cut at BulkMaxLines
)

// Config bounds one Server's request handling. The zero value of any
// field selects the DefaultConfig value for it, except CacheSize, where
// zero disables the response cache entirely (there is no "cache of
// default size" spelling other than DefaultConfig().CacheSize).
type Config struct {
	// BulkMaxLines caps the number of input lines one /v1/bulk request
	// may carry; the stream ends with a too_many_lines error line when
	// exceeded.
	BulkMaxLines int
	// BulkFlushEvery flushes the bulk response stream every N result
	// lines, bounding client-visible latency and buffer growth.
	BulkFlushEvery int
	// CacheSize bounds the response cache in entries across all shards.
	// Zero or negative disables caching.
	CacheSize int
}

// DefaultConfig is the daemon-flag default configuration.
func DefaultConfig() Config {
	return Config{BulkMaxLines: 100000, BulkFlushEvery: 512, CacheSize: 4096}
}

// Server answers HTTP/JSON queries from a snapshot store. Safe for
// concurrent requests and concurrent snapshot swaps; see the package
// documentation for the full contract.
type Server struct {
	store *store.Store
	cfg   Config
	cache *responseCache

	lis net.Listener
	srv *http.Server
}

// New builds a server reading each request from st's current snapshot.
func New(st *store.Store, cfg Config) *Server {
	if cfg.BulkMaxLines <= 0 {
		cfg.BulkMaxLines = DefaultConfig().BulkMaxLines
	}
	if cfg.BulkFlushEvery <= 0 {
		cfg.BulkFlushEvery = DefaultConfig().BulkFlushEvery
	}
	return &Server{store: st, cfg: cfg, cache: newResponseCache(cfg.CacheSize)}
}

// NewStatic builds a server over one fixed dataset — a single-snapshot
// store that is never swapped — with the default configuration.
// Embedders and tests with no reload story use this.
func NewStatic(ds *prefix2org.Dataset) *Server {
	return New(store.New(&store.Snapshot{Dataset: ds}), DefaultConfig())
}

// Handler returns the query-surface handler (the /v1/ endpoints). The
// daemon serves it on the public listener; tests drive it through
// httptest directly.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/addr/{ip}", s.handleAddr)
	mux.HandleFunc("/v1/prefix/{cidr...}", s.handlePrefix)
	mux.HandleFunc("/v1/org/{id...}", s.handleOrg)
	mux.HandleFunc("/v1/bulk", s.handleBulk)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeErrorEnvelope(w, http.StatusNotFound, "not_found", "unknown endpoint (see API.md: /v1/addr, /v1/prefix, /v1/org, /v1/bulk)")
	})
	return mux
}

// idleTimeout closes a keep-alive connection that carries no request
// for this long.
const idleTimeout = 2 * time.Minute

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = s.srv.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Close stops the listener and closes active connections.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// --- single-query endpoints --------------------------------------------------

// serve is the shared single-query skeleton: method check, snapshot
// pin, cache lookup or answer and cache fill, write, telemetry. The snapshot
// is loaded exactly once per request and every byte of the response is
// derived from it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, kind daemon.Kind, q string) {
	start := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeErrorEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	sp := telemetry.StartSpan()
	// Acquire pins the snapshot's backing buffer until the response is
	// written; cached bodies are copies, so cache entries outliving the
	// pin is fine.
	snap, release := s.store.Acquire()
	defer release()
	qtype := kind.String()
	info := obs.QueryInfo{Start: start, Text: q, Type: qtype, SnapshotVersion: snap.Version}
	if snap.Dataset == nil {
		writeErrorEnvelope(w, http.StatusServiceUnavailable, "not_ready", "no dataset loaded yet")
		info.Outcome = daemon.OutcomeError
		telemetry.Finish(sp, info)
		return
	}
	key := qtype + "/" + q
	e, hit := s.cache.get(key, snap.Version)
	if hit {
		mCacheHits.Inc()
		sp.Mark(obs.PhaseLookup)
	} else {
		if s.cache != nil {
			mCacheMisses.Inc()
		}
		e = answer(snap, kind, q, sp)
		sp.Mark(obs.PhaseEncode)
		// Negative answers (bad input, no match) are cached too: a hot
		// mistyped query is still hot. Only not_ready is transient.
		s.cache.put(key, e)
	}
	info.Type, info.Outcome = e.qtype, e.outcome
	if !writeBody(w, e.status, e.body) {
		info.Outcome = outcomeWriteError
		mServeErrors.Inc()
	}
	sp.Mark(obs.PhaseWrite)
	telemetry.Finish(sp, info)
}

func (s *Server) handleAddr(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, daemon.KindAddr, r.PathValue("ip"))
}

func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, daemon.KindPrefix, r.PathValue("cidr"))
}

func (s *Server) handleOrg(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, daemon.KindOrg, r.PathValue("id"))
}

// answer resolves one query of the route's kind against the pinned
// snapshot and renders the ready-to-cache response: the success
// envelope for a match (a covering answer is the same degradation the
// whois surface answers with a note), an error envelope otherwise.
func answer(snap *store.Snapshot, kind daemon.Kind, q string, sp *obs.QuerySpan) *cacheEntry {
	ans := daemon.Resolve(snap.Dataset, kind, q, sp)
	e := &cacheEntry{version: snap.Version, status: http.StatusOK, qtype: ans.Kind.String(), outcome: ans.Outcome}
	switch {
	case ans.Kind == daemon.KindBad:
		msg := "empty organization query" // the one way an org query is bad
		switch kind {
		case daemon.KindAddr:
			msg = "bad address " + strconv.Quote(q)
		case daemon.KindPrefix:
			msg = "bad prefix " + strconv.Quote(q)
		}
		e.status, e.body = http.StatusBadRequest, marshalError(http.StatusBadRequest, "bad_request", msg)
	case ans.Outcome == daemon.OutcomeNoMatch:
		msg := "no record covers " + q
		if kind == daemon.KindOrg {
			msg = "no cluster with ID or owner name " + strconv.Quote(q)
		}
		e.status, e.body = http.StatusNotFound, marshalError(http.StatusNotFound, "no_match", msg)
	default:
		e.body = marshalQuery(q, e.qtype, ans.Outcome, snap.Version, ans.Record, ans.Cluster)
	}
	return e
}

// --- wire shapes -------------------------------------------------------------

// customerJSON is one Delegated Customer level of a record, outermost
// first.
type customerJSON struct {
	Name   string `json:"name"`
	Prefix string `json:"prefix"`
	Type   string `json:"type"`
}

// recordJSON is the wire form of a prefix2org.Record (API.md: Record
// object). It is a clean snake_case projection rather than the
// release-JSONL column names the Record struct tags carry.
type recordJSON struct {
	Prefix             string         `json:"prefix"`
	RIR                string         `json:"rir"`
	DirectOwner        string         `json:"direct_owner"`
	DOPrefix           string         `json:"do_prefix"`
	DOType             string         `json:"do_type"`
	DelegatedCustomers []customerJSON `json:"delegated_customers,omitempty"`
	BaseName           string         `json:"base_name"`
	RPKICert           string         `json:"rpki_cert,omitempty"`
	OriginASN          uint32         `json:"origin_asn,omitempty"`
	ASNCluster         string         `json:"asn_cluster,omitempty"`
	FinalCluster       string         `json:"final_cluster"`
}

// clusterJSON is the wire form of a prefix2org.Cluster (API.md: Cluster
// object).
type clusterJSON struct {
	ID       string   `json:"id"`
	BaseName string   `json:"base_name"`
	OrgNames []string `json:"org_names"`
	Prefixes []string `json:"prefixes"`
}

// queryResponse is the single-query success envelope.
type queryResponse struct {
	Query           string       `json:"query"`
	Type            string       `json:"type"`
	Outcome         string       `json:"outcome"`
	SnapshotVersion uint64       `json:"snapshot_version"`
	Record          *recordJSON  `json:"record,omitempty"`
	Cluster         *clusterJSON `json:"cluster,omitempty"`
}

// errorResponse is the error envelope every non-2xx response carries.
type errorResponse struct {
	Error  errorBody `json:"error"`
	Status int       `json:"status"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func recordWire(rec *prefix2org.Record) *recordJSON {
	out := &recordJSON{
		Prefix:       rec.Prefix.String(),
		RIR:          rec.RIR,
		DirectOwner:  rec.DirectOwner,
		DOPrefix:     rec.DOPrefix.String(),
		DOType:       rec.DOType,
		BaseName:     rec.BaseName,
		RPKICert:     rec.RPKICert,
		OriginASN:    rec.OriginASN,
		ASNCluster:   rec.ASNCluster,
		FinalCluster: rec.FinalCluster,
	}
	for i, name := range rec.DelegatedCustomers {
		c := customerJSON{Name: name}
		if i < len(rec.DCPrefixes) {
			c.Prefix = rec.DCPrefixes[i].String()
		}
		if i < len(rec.DCTypes) {
			c.Type = rec.DCTypes[i]
		}
		out.DelegatedCustomers = append(out.DelegatedCustomers, c)
	}
	return out
}

func clusterWire(c *prefix2org.Cluster) *clusterJSON {
	out := &clusterJSON{ID: c.ID, BaseName: c.BaseName, OrgNames: c.OwnerNames, Prefixes: make([]string, 0, len(c.Prefixes))}
	for _, p := range c.Prefixes {
		out.Prefixes = append(out.Prefixes, p.String())
	}
	return out
}

// marshalQuery renders the success envelope. Marshal of these plain
// structs cannot fail; the rendered bytes end in a newline so curl
// output is line-clean.
func marshalQuery(q, qtype, outcome string, version uint64, rec *prefix2org.Record, c *prefix2org.Cluster) []byte {
	resp := queryResponse{Query: q, Type: qtype, Outcome: outcome, SnapshotVersion: version}
	if rec != nil {
		resp.Record = recordWire(rec)
	}
	if c != nil {
		resp.Cluster = clusterWire(c)
	}
	b, _ := json.Marshal(resp)
	return append(b, '\n')
}

// marshalError renders the error envelope.
func marshalError(status int, code, msg string) []byte {
	b, _ := json.Marshal(errorResponse{Error: errorBody{Code: code, Message: msg}, Status: status})
	return append(b, '\n')
}

// writeBody writes one rendered response; false reports a transport
// write failure (the status and headers may already be on the wire).
func writeBody(w http.ResponseWriter, status int, body []byte) bool {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err == nil
}

// writeErrorEnvelope renders and writes an error envelope in one step —
// the paths with no cache or telemetry involvement (unknown routes,
// method mismatches, not-ready).
func writeErrorEnvelope(w http.ResponseWriter, status int, code, msg string) {
	writeBody(w, status, marshalError(status, code, msg))
}
