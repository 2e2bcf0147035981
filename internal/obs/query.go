package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Query telemetry: the serve-path counterpart of the build pipeline's
// Trace. A QueryTelemetry instance accounts every query of one server
// (counters by type and outcome, rolling latency quantiles, SLO
// violations, slow-query capture) and additionally samples 1-in-N
// queries into a pooled QuerySpan that the server hands to each phase
// it marks (parse / lookup / write), landing in the /debug/queries
// ring. The unsampled fast path —
// the overwhelming majority of queries — performs only atomic work and
// never allocates; the alloc guards in internal/obs and the daemons pin
// that property.

// QueryPhase indexes one per-query timing slot.
type QueryPhase uint8

// The serve-path phases a QuerySpan times. Servers Mark each phase as it
// completes; the span records the time since the previous mark. Not
// every server crosses every phase: whoisd writes its response directly
// (parse/lookup/write), while httpd renders JSON into a buffer first
// (parse/lookup/encode/write). An unmarked phase simply reports zero.
const (
	PhaseParse QueryPhase = iota
	PhaseLookup
	PhaseEncode
	PhaseWrite
	numQueryPhases
)

var phaseNames = [numQueryPhases]string{"parse", "lookup", "encode", "write"}

// QuerySpan carries per-phase timings for one sampled query. Spans are
// pooled: servers obtain one from QueryTelemetry.StartSpan (nil when the
// query is unsampled — every method is nil-safe) and hand it back via
// Finish. A span has a single writer: the goroutine serving the query.
type QuerySpan struct {
	phases   [numQueryPhases]time.Duration
	lastMark time.Time
}

// Mark closes phase p, charging it the time elapsed since the previous
// mark (or since StartSpan for the first). Nil-safe: on an unsampled
// query the receiver is nil and Mark is a no-op.
//
//p2o:hotpath
func (s *QuerySpan) Mark(p QueryPhase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.phases[p] += now.Sub(s.lastMark)
	s.lastMark = now
}

// Phase returns the accumulated duration of p (0 on a nil span).
func (s *QuerySpan) Phase(p QueryPhase) time.Duration {
	if s == nil {
		return 0
	}
	return s.phases[p]
}

func (s *QuerySpan) reset() {
	s.phases = [numQueryPhases]time.Duration{}
	s.lastMark = time.Now()
}

// QueryInfo describes one finished query. All fields are plain values or
// strings that already exist on the serve path (query text, constant
// type/outcome names), so building one allocates nothing.
type QueryInfo struct {
	// Start is when the server began handling the query.
	Start time.Time
	// Text is the query as received ("198.51.100.7", "AS-SET ...").
	Text string
	// Type classifies the query ("addr", "prefix", "org", "bad", ...).
	Type string
	// Outcome is the result class ("match", "covering", "no_match",
	// "error", "write_error", ...).
	Outcome string
	// SnapshotVersion is the store snapshot the query was answered from.
	SnapshotVersion uint64
}

// QueryRecord is one captured query as exposed by /debug/queries.
type QueryRecord struct {
	Time            time.Time        `json:"time"`
	Type            string           `json:"type"`
	Query           string           `json:"query"`
	Outcome         string           `json:"outcome"`
	SnapshotVersion uint64           `json:"snapshot_version"`
	DurationUS      int64            `json:"duration_us"`
	PhasesUS        map[string]int64 `json:"phases_us,omitempty"`
}

// queryRing is a bounded ring of captured queries. Only sampled or slow
// queries pass through it, so a mutex is fine.
type queryRing struct {
	mu   sync.Mutex
	buf  []QueryRecord
	next int
	full bool
}

func newQueryRing(capacity int) *queryRing {
	return &queryRing{buf: make([]QueryRecord, capacity)}
}

func (r *queryRing) add(rec QueryRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// list returns the captured queries, newest first.
func (r *queryRing) list() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]QueryRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// QueryTelemetryConfig wires a QueryTelemetry to its instruments. The
// instruments are registered by the owning server package with literal
// metric names (the obs-conventions lint rule audits those sites);
// telemetry only drives them.
type QueryTelemetryConfig struct {
	// Latency receives every query's duration in seconds. Optional.
	Latency *Histogram
	// SLOViolations is incremented for every query slower than the SLO
	// target. Optional (required for SetSLOTarget to matter).
	SLOViolations *Counter
	// Types and Outcomes count every query under its QueryInfo.Type and
	// Outcome; a value with no counter is not counted. Optional.
	Types, Outcomes map[string]*Counter
	// Logger receives the structured slow-query line. Optional.
	Logger *slog.Logger
}

// Sizes of the sampled- and slow-query rings.
const recentCapacity, slowCapacity = 64, 32

// QueryTelemetry accounts one server's queries. All methods are safe
// for concurrent use.
type QueryTelemetry struct {
	window          *QuantileWindow
	lat             *Histogram
	sloViolations   *Counter
	types, outcomes map[string]*Counter
	logger          *slog.Logger

	seq         atomic.Uint64
	sampleEvery atomic.Uint64 // 0 disables sampling
	sloTarget   atomic.Int64  // ns; 0 disables
	slowAfter   atomic.Int64  // ns; 0 disables

	pool   sync.Pool
	recent *queryRing
	slow   *queryRing
}

// NewQueryTelemetry builds a telemetry instance. Sampling defaults to
// 1-in-16; SLO and slow-query tracking start disabled until their
// setters are called (daemon flags).
func NewQueryTelemetry(cfg QueryTelemetryConfig) *QueryTelemetry {
	t := &QueryTelemetry{
		window:        NewQuantileWindow(DefaultQuantileWindow),
		lat:           cfg.Latency,
		sloViolations: cfg.SLOViolations,
		types:         cfg.Types,
		outcomes:      cfg.Outcomes,
		logger:        cfg.Logger,
		recent:        newQueryRing(recentCapacity),
		slow:          newQueryRing(slowCapacity),
	}
	t.pool.New = func() any { return new(QuerySpan) }
	t.sampleEvery.Store(16)
	return t
}

// SetSampleEvery samples one query span per n queries (1 samples every
// query, 0 disables sampling).
func (t *QueryTelemetry) SetSampleEvery(n uint64) { t.sampleEvery.Store(n) }

// SetSLOTarget sets the latency objective; queries slower than d count
// as SLO violations. 0 disables the tracker.
func (t *QueryTelemetry) SetSLOTarget(d time.Duration) { t.sloTarget.Store(int64(d)) }

// SLOTarget returns the configured latency objective (0 when disabled).
func (t *QueryTelemetry) SLOTarget() time.Duration { return time.Duration(t.sloTarget.Load()) }

// SetSlowThreshold captures and logs queries slower than d. 0 disables
// slow-query capture.
func (t *QueryTelemetry) SetSlowThreshold(d time.Duration) { t.slowAfter.Store(int64(d)) }

// Quantile returns the q-quantile of the rolling latency window in
// seconds (0 with no traffic). The /metrics gauges are GaugeFuncs over
// this.
func (t *QueryTelemetry) Quantile(q float64) float64 { return t.window.Quantile(q) }

// StartSpan decides whether this query is sampled: a sampled query
// gets a pooled span, which the server passes to each phase it marks;
// an unsampled one gets nil — that path performs one atomic add and
// never allocates.
//
//p2o:hotpath
func (t *QueryTelemetry) StartSpan() *QuerySpan {
	n := t.sampleEvery.Load()
	if n == 0 || t.seq.Add(1)%n != 0 {
		return nil
	}
	s := t.pool.Get().(*QuerySpan)
	s.reset()
	return s
}

// Finish accounts one completed query, and is the one place a query is
// counted: the counters of its type and outcome, the rolling quantile
// window and latency histogram always move, the SLO tracker fires when
// the query overran the target, slow queries are captured (and logged)
// whether or not they were sampled, and a sampled span lands in the
// recent-query ring with its phase timings before returning to the
// pool. The snapshot version is not counted: it rides only the captured
// records and the slow-query log line.
//
// sp may be nil (the unsampled path); info fields are copied by value,
// so the caller's buffers are not retained.
//
//p2o:hotpath
func (t *QueryTelemetry) Finish(sp *QuerySpan, info QueryInfo) {
	if c := t.types[info.Type]; c != nil {
		c.Inc()
	}
	if c := t.outcomes[info.Outcome]; c != nil {
		c.Inc()
	}
	dur := time.Since(info.Start)
	t.window.Observe(dur.Seconds())
	if t.lat != nil {
		t.lat.Observe(dur.Seconds())
	}
	if target := t.sloTarget.Load(); target > 0 && int64(dur) > target && t.sloViolations != nil {
		t.sloViolations.Inc()
	}
	slowAfter := t.slowAfter.Load()
	isSlow := slowAfter > 0 && int64(dur) >= slowAfter
	if sp == nil && !isSlow {
		return // fast path: nothing to capture
	}
	rec := QueryRecord{
		Time:            info.Start,
		Type:            info.Type,
		Query:           info.Text,
		Outcome:         info.Outcome,
		SnapshotVersion: info.SnapshotVersion,
		DurationUS:      dur.Microseconds(),
	}
	if sp != nil {
		rec.PhasesUS = make(map[string]int64, numQueryPhases)
		for p, name := range phaseNames {
			rec.PhasesUS[name] = sp.phases[p].Microseconds()
		}
		t.recent.add(rec)
	}
	if isSlow {
		t.slow.add(rec)
		if t.logger != nil {
			//p2olint:ignore hotpath-alloc slow-query logging is already off the fast path and rate-bounded by the threshold
			t.logger.Warn("slow query",
				"query", info.Text, "type", info.Type, "outcome", info.Outcome,
				"snapshot", info.SnapshotVersion, "duration", dur,
				"parse", sp.Phase(PhaseParse), "lookup", sp.Phase(PhaseLookup),
				"encode", sp.Phase(PhaseEncode), "write", sp.Phase(PhaseWrite))
		}
	}
	if sp != nil {
		t.pool.Put(sp)
	}
}

// Recent returns the sampled-query ring, newest first.
func (t *QueryTelemetry) Recent() []QueryRecord { return t.recent.list() }

// Slow returns the slow-query ring, newest first.
func (t *QueryTelemetry) Slow() []QueryRecord { return t.slow.list() }

// debugQueriesPage is the /debug/queries JSON shape.
type debugQueriesPage struct {
	SLOTargetMS float64            `json:"slo_target_ms,omitempty"`
	QuantilesMS map[string]float64 `json:"rolling_quantiles_ms"`
	Recent      []QueryRecord      `json:"recent"`
	Slow        []QueryRecord      `json:"slow"`
}

// DebugHandler serves the recent- and slow-query rings plus the rolling
// quantiles as JSON — the daemons mount it at /debug/queries on the
// admin listener.
func (t *QueryTelemetry) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		qs := t.window.Quantiles(0.50, 0.90, 0.99, 0.999)
		page := debugQueriesPage{
			SLOTargetMS: float64(t.SLOTarget()) / float64(time.Millisecond),
			QuantilesMS: map[string]float64{
				"p50":  qs[0] * 1000,
				"p90":  qs[1] * 1000,
				"p99":  qs[2] * 1000,
				"p999": qs[3] * 1000,
			},
			Recent: t.Recent(),
			Slow:   t.Slow(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
