// Package whoisd serves a Prefix2Org dataset over the WHOIS protocol
// (RFC 3912): clients query a prefix, an address, or an organization
// name and receive the Listing-1-style ownership record or the final
// cluster — the natural "operators query our public dataset" deployment
// of the paper's artifact.
//
// The server owns no dataset state: every query loads the store's
// current snapshot once and answers entirely from it, so a concurrent
// snapshot swap (hot reload) never blocks a query and never shows a
// query a mix of two dataset versions.
//
// Every query the listener reads — an overlong line and a not-ready
// answer included — is counted once, when the package's
// obs.QueryTelemetry finishes it: whoisd_queries_total by type,
// whoisd_no_match_total, rolling p50/p90/p99/p999 latency gauges, an
// SLO-violation counter, and — for sampled or slow queries — a
// QuerySpan the server passes through the parse, lookup, and write
// phases, landing in the /debug/queries ring with the snapshot version
// that answered.
// The unsampled path stays allocation-free. Server.Answer, which
// bypasses the listener, counts nothing.
package whoisd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/store"
)

// Server metrics, registered on the process-wide registry so the admin
// listener's /metrics page exposes them.
var (
	mAcceptErrors  = obs.Default().Counter("whoisd_accept_errors_total")
	mServeErrors   = obs.Default().Counter("whoisd_serve_errors_total")
	mSLOViolations = obs.Default().Counter("whoisd_slo_violations_total")
	mLatency       = obs.Default().Histogram("whoisd_query_seconds", obs.DefBuckets)

	logger = obs.Logger("whoisd")

	// telemetry accounts every query: the counters by type and outcome,
	// the rolling quantile window behind the whoisd_query_seconds_p*
	// gauges, SLO tracking, and the sampled QuerySpan rings served at
	// /debug/queries. Daemon flags tune it via Telemetry().
	telemetry = obs.NewQueryTelemetry(obs.QueryTelemetryConfig{
		Latency:       mLatency,
		SLOViolations: mSLOViolations,
		Types: map[string]*obs.Counter{
			daemon.KindPrefix.String(): obs.Default().Counter(obs.Label("whoisd_queries_total", "type", "prefix")),
			daemon.KindAddr.String():   obs.Default().Counter(obs.Label("whoisd_queries_total", "type", "addr")),
			daemon.KindOrg.String():    obs.Default().Counter(obs.Label("whoisd_queries_total", "type", "org")),
			daemon.KindBad.String():    obs.Default().Counter(obs.Label("whoisd_queries_total", "type", "bad")),
		},
		Outcomes: map[string]*obs.Counter{daemon.OutcomeNoMatch: obs.Default().Counter("whoisd_no_match_total")},
		Logger:   logger,
	})
)

func init() {
	// Rolling SLO quantiles, computed from the telemetry window at
	// scrape time: gauges on /metrics without any per-query cost beyond
	// the window's atomic store.
	obs.Default().GaugeFunc("whoisd_query_seconds_p50", func() float64 { return telemetry.Quantile(0.50) })
	obs.Default().GaugeFunc("whoisd_query_seconds_p90", func() float64 { return telemetry.Quantile(0.90) })
	obs.Default().GaugeFunc("whoisd_query_seconds_p99", func() float64 { return telemetry.Quantile(0.99) })
	obs.Default().GaugeFunc("whoisd_query_seconds_p999", func() float64 { return telemetry.Quantile(0.999) })
}

// Telemetry returns the package's query telemetry: daemons wire the
// -slo-target / -slow-query-threshold / -query-sample flags and mount
// its DebugHandler at /debug/queries.
func Telemetry() *obs.QueryTelemetry { return telemetry }

// outcomeWriteError is the outcome class, beside the resolver's, of a
// query whose answer could not be flushed to the peer.
const outcomeWriteError = "write_error"

// maxQueryBytes bounds one query line, its CR LF included.
const maxQueryBytes = 4096

// banner opens every answer.
const banner = "% Prefix2Org whois (synthetic dataset)\r\n"

// Server answers WHOIS queries from a snapshot store. Safe for
// concurrent queries and concurrent snapshot swaps.
type Server struct {
	store *store.Store
	lis   daemon.Listener
}

// New builds a server reading each query from st's current snapshot.
func New(st *store.Store) *Server {
	return &Server{store: st}
}

// NewStatic builds a server over one fixed dataset — a single-snapshot
// store that is never swapped. Embedders and tests that have no reload
// story use this.
func NewStatic(ds *prefix2org.Dataset) *Server {
	return New(store.New(&store.Snapshot{Dataset: ds}))
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	return s.lis.Listen(addr, mAcceptErrors, mServeErrors, logger, s.handle)
}

// Close stops the listener and waits for in-flight queries.
func (s *Server) Close() error { return s.lis.Close() }

// handle answers the one query a connection carries; the listener
// closes the connection when it returns.
func (s *Server) handle(conn net.Conn) {
	start := time.Now()
	_ = conn.SetDeadline(start.Add(30 * time.Second))
	// The query line must fit the reader's buffer: a client streaming
	// bytes with no newline is answered and cut off there, not buffered
	// for the whole deadline.
	line, err := bufio.NewReaderSize(conn, maxQueryBytes).ReadSlice('\n')
	if err != nil && len(line) == 0 {
		mServeErrors.Inc()
		logger.Warn("query read failed", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	// Sampled queries get a pooled span; the rest get nil — that path
	// never allocates.
	sp := telemetry.StartSpan()
	// Answer straight onto the buffered socket writer: the response
	// body never materializes as one large string on the wire path.
	bw := bufio.NewWriter(conn)
	// An overlong line is answered without a snapshot: version 0, as a
	// not-ready answer reports.
	info := obs.QueryInfo{Type: "bad", Outcome: daemon.OutcomeError}
	if err == bufio.ErrBufferFull {
		io.WriteString(bw, banner+"% error: query too long\r\n")
	} else {
		info = s.answer(sp, bw, strings.TrimSpace(string(line)))
	}
	info.Start = start
	if err := bw.Flush(); err != nil {
		mServeErrors.Inc()
		logger.Warn("response write failed", "remote", conn.RemoteAddr().String(), "err", err)
		info.Outcome = outcomeWriteError
	} else {
		sp.Mark(obs.PhaseWrite)
	}
	telemetry.Finish(sp, info)
}

// Answer resolves one query line to the response body, entirely against
// the snapshot current at entry. Exposed for tests and for embedding in
// other transports; it moves no metric. The wire path uses answer
// directly with the connection's buffered writer.
func (s *Server) Answer(q string) string {
	var b strings.Builder
	s.answer(nil, &b, q)
	return b.String()
}

// answer writes the response for one query line to w, marking the
// span phases (parse / lookup; write closes at flush time) on sp (nil
// for an unsampled query), and returns how the query is to be
// accounted (all but the start time — plain values and constant
// strings, so building it allocates nothing). Writes to a
// strings.Builder or bufio.Writer cannot fail; transport errors surface
// at Flush time in the caller.
//
//p2o:hotpath
func (s *Server) answer(sp *obs.QuerySpan, w io.Writer, q string) obs.QueryInfo {
	// Acquire pins the snapshot's backing buffer (a view-backed
	// dataset's mmap) for the duration of the answer; a swap happening
	// mid-query cannot release data this response still reads.
	snap, release := s.store.Acquire()
	defer release()
	ds := snap.Dataset
	info := obs.QueryInfo{Text: q, Type: "bad", Outcome: daemon.OutcomeError, SnapshotVersion: snap.Version}
	io.WriteString(w, banner)
	if ds == nil {
		mServeErrors.Inc()
		io.WriteString(w, "% error: no dataset loaded\r\n")
		return info
	}
	ans := daemon.Resolve(ds, daemon.KindAny, q, sp)
	info.Type, info.Outcome = ans.Kind.String(), ans.Outcome
	switch {
	case q == "":
		io.WriteString(w, "% error: empty query\r\n")
	case ans.Kind == daemon.KindBad: // only a "/" form can fail to parse
		//p2olint:ignore hotpath-alloc error path for malformed queries; not the per-query fast path
		fmt.Fprintf(w, "%% error: bad prefix %q\r\n", q)
	case ans.Outcome == daemon.OutcomeNoMatch:
		io.WriteString(w, "% no match\r\n")
	case ans.Cluster != nil:
		writeCluster(w, ans.Cluster)
	default:
		if ans.Outcome == daemon.OutcomeCovering {
			//p2olint:ignore hotpath-alloc covering-fallback note is a rare informational line
			fmt.Fprintf(w, "%% note: %s not announced; answering for covering %s\r\n", q, ans.Record.Prefix)
		}
		writeRecord(w, ans.Record)
	}
	return info
}

// writeCluster renders an organization answer; its size is bounded by
// the cluster, not the query rate, so it formats freely.
func writeCluster(w io.Writer, c *prefix2org.Cluster) {
	fmt.Fprintf(w, "cluster:      %s\r\n", c.ID)
	fmt.Fprintf(w, "base-name:    %s\r\n", c.BaseName)
	for _, n := range c.OwnerNames {
		fmt.Fprintf(w, "org-name:     %s\r\n", n)
	}
	for _, p := range c.Prefixes {
		fmt.Fprintf(w, "prefix:       %s\r\n", p)
	}
}

func writeRecord(w io.Writer, rec *prefix2org.Record) {
	fmt.Fprintf(w, "prefix:        %s\r\n", rec.Prefix)
	fmt.Fprintf(w, "rir:           %s\r\n", rec.RIR)
	fmt.Fprintf(w, "direct-owner:  %s\r\n", rec.DirectOwner)
	fmt.Fprintf(w, "do-prefix:     %s\r\n", rec.DOPrefix)
	fmt.Fprintf(w, "do-type:       %s\r\n", rec.DOType)
	for i, dc := range rec.DelegatedCustomers {
		fmt.Fprintf(w, "customer:      %s (%s over %s)\r\n", dc, rec.DCTypes[i], rec.DCPrefixes[i])
	}
	fmt.Fprintf(w, "base-name:     %s\r\n", rec.BaseName)
	if rec.RPKICert != "" {
		fmt.Fprintf(w, "rpki-cert:     %s\r\n", rec.RPKICert)
	}
	if rec.OriginASN != 0 {
		fmt.Fprintf(w, "origin-as:     AS%d (cluster %s)\r\n", rec.OriginASN, rec.ASNCluster)
	}
	fmt.Fprintf(w, "final-cluster: %s\r\n", rec.FinalCluster)
}
