package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary, from the bench's
// own files: the programs under test are not instrumented. Times are
// nanoseconds since the trace began; Parent is the ID of the span that
// caused this one (0 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing, so end-to-end numbers never pay for
// tracing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a finished interval and returns its ID.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span; the returned func closes it. Children pass the
// returned ID as their parent.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// merge appends spans recorded by a child process under parent. The
// child's clock origin differs, so its spans are shifted to start at
// offset.
func (t *tracer) merge(child []span, parent int, offset time.Time) {
	if t == nil || len(child) == 0 {
		return
	}
	shift := offset.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerRow is one line of the per-layer table: all spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the part of each span its children cover.
	Self time.Duration
}

// table folds the spans by name. A span's self time is its duration
// minus the union of its children's intervals (children may overlap —
// the two client connections run side by side under one run span).
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, s.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

func (t *tracer) printTable(w io.Writer) {
	rows := t.table()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-34s %9s %14s %14s\n", "span", "count", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %9d %14s %14s\n", r.Name, r.Count, r.Total.Round(time.Microsecond), r.Self.Round(time.Microsecond))
	}
}

// writeFile dumps the span list as JSON (-trace-out).
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
