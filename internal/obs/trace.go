package obs

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// Trace records the per-stage accounting of one batch pipeline run:
// ordered spans with wall time and named record counts (inputs, outputs,
// drops).
//
// Concurrency contract: the span list is locked, so Start may be called
// from multiple goroutines (the parallel loaders each own a span), but
// each individual Span must have a single writer at a time — stages that
// fan work out over a pool accumulate counts locally and Add them once
// the pool has drained. Read the trace only after the run completes.
type Trace struct {
	// Name identifies the traced operation ("build").
	Name string
	// Started is the trace's creation time.
	Started time.Time

	mu    sync.Mutex
	spans []*Span
}

// Span is one pipeline stage. A Span is written by one goroutine at a
// time: Add/End/SetWorkers are not synchronized.
type Span struct {
	// Name identifies the stage ("resolve", "load-whois", ...).
	Name string
	// Duration is the stage's wall time, set by End.
	Duration time.Duration
	// Workers is the stage's degree of parallelism (0 when the stage is
	// inherently serial; set with SetWorkers otherwise). It is rendered
	// in String and LogValue but is not a record count, so serial and
	// parallel runs of the same build still produce identical counts.
	Workers int

	start  time.Time
	paused bool          // Pause stopped the clock; Restart resumes it
	banked time.Duration // time run before the last Pause
	keys   []string      // count keys in first-Add order
	counts map[string]int64
}

// NewTrace starts a trace.
func NewTrace(name string) *Trace {
	return &Trace{Name: name, Started: time.Now()}
}

// Start opens a new span. Close it with End when the stage finishes.
// Stages that run concurrently may each Start (or be handed) their own
// span; spans appear in the trace in Start order.
func (t *Trace) Start(name string) *Span {
	s := &Span{Name: name, start: time.Now(), counts: map[string]int64{}}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Restart resets the span's clock to now. A runner that opens all its
// spans before any stage runs — so their order in the trace is fixed —
// restarts each one when its stage actually begins. After Pause it
// resumes the clock, keeping the time already run.
func (s *Span) Restart() {
	s.start = time.Now()
	s.paused = false
}

// Pause stops the span's clock without closing it, for a stage that runs
// in two parts with other work between them: Restart resumes it, and End
// reports the parts' summed time. Pausing a paused span does nothing.
func (s *Span) Pause() {
	if !s.paused {
		s.banked += time.Since(s.start)
		s.paused = true
	}
}

// End closes the span, fixing its duration. It returns the span for
// chaining and is idempotent (the first call wins).
func (s *Span) End() *Span {
	if s.Duration == 0 {
		s.Duration = s.banked
		if !s.paused {
			s.Duration += time.Since(s.start)
		}
		if s.Duration <= 0 {
			// Coarse clocks can report zero for sub-tick stages; clamp so
			// "the stage ran" is always visible in the trace.
			s.Duration = time.Nanosecond
		}
	}
	return s
}

// Add accumulates a named count on the span (records in, records
// dropped, ...).
func (s *Span) Add(key string, n int64) {
	if _, ok := s.counts[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.counts[key] += n
}

// SetWorkers records the stage's degree of parallelism. It returns the
// span for chaining.
func (s *Span) SetWorkers(n int) *Span {
	s.Workers = n
	return s
}

// Count returns the span's accumulated count for key (0 when absent).
func (s *Span) Count(key string) int64 { return s.counts[key] }

// Counts returns the span's count keys in first-Add order.
func (s *Span) Counts() []string { return append([]string(nil), s.keys...) }

// Spans returns the trace's spans in start order.
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Span returns the named span.
func (t *Trace) Span(name string) (*Span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Total returns the summed duration of all spans. When stages overlap
// (parallel loads), Total exceeds the trace's wall time.
func (t *Trace) Total() time.Duration {
	var d time.Duration
	for _, s := range t.Spans() {
		d += s.Duration
	}
	return d
}

// String renders the trace as an aligned human-readable table:
//
//	build: 5 stages, 12.3ms total
//	  load-whois   4.1ms  records=1234 entries=1200 deduped=34
//	  ...
func (t *Trace) String() string {
	spans := t.Spans()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d stages, %s total\n", t.Name, len(spans), t.Total().Round(time.Microsecond))
	width := 0
	for _, s := range spans {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range spans {
		fmt.Fprintf(&b, "  %-*s %10s", width, s.Name, s.Duration.Round(time.Microsecond))
		if s.Workers > 0 {
			fmt.Fprintf(&b, " [x%d]", s.Workers)
		}
		for _, k := range s.keys {
			fmt.Fprintf(&b, "  %s=%d", k, s.counts[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LogValue renders the trace as structured attributes, so a trace logs
// cleanly via logger.Info("build complete", "trace", trace).
func (t *Trace) LogValue() slog.Value {
	spans := t.Spans()
	attrs := make([]slog.Attr, 0, len(spans)+1)
	attrs = append(attrs, slog.Duration("total", t.Total()))
	for _, s := range spans {
		sub := make([]slog.Attr, 0, len(s.keys)+2)
		sub = append(sub, slog.Duration("duration", s.Duration))
		if s.Workers > 0 {
			sub = append(sub, slog.Int("workers", s.Workers))
		}
		for _, k := range s.keys {
			sub = append(sub, slog.Int64(k, s.counts[k]))
		}
		attrs = append(attrs, slog.Attr{Key: s.Name, Value: slog.GroupValue(sub...)})
	}
	return slog.GroupValue(attrs...)
}
