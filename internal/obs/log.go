// Package obs is the observability layer of the prefix2org system:
// component-scoped structured logging on log/slog, a race-safe metrics
// registry (counters, gauges, fixed-bucket histograms) with HTTP
// exposition, and span-based tracing for the batch pipeline. Everything
// is stdlib-only.
//
// The package keeps one process-wide logging configuration and one
// default metrics registry. Library packages obtain component loggers
// with Logger("whoisd") and register metrics against Default(); binaries
// call Configure to select the level and output format (the library
// default is quiet: Warn-level text on stderr), and ServeAdmin to expose
// /metrics, /healthz, and pprof on an opt-in listener.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// levelVar is the process-wide log level, shared by every handler the
// package installs so Configure takes effect retroactively.
var levelVar = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(slog.LevelWarn)
	return v
}()

// handlerBox wraps the current base handler so it can live in an
// atomic.Pointer (atomic.Value would require one concrete type).
type handlerBox struct{ h slog.Handler }

var baseHandler = func() *atomic.Pointer[handlerBox] {
	p := new(atomic.Pointer[handlerBox])
	p.Store(&handlerBox{h: slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: levelVar})})
	return p
}()

// Configure installs the process-wide logging configuration: minimum
// level, JSON or logfmt-style text, and destination. Loggers previously
// returned by Logger pick the new configuration up immediately.
func Configure(level slog.Level, json bool, w io.Writer) {
	levelVar.Set(level)
	opts := &slog.HandlerOptions{Level: levelVar}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	baseHandler.Store(&handlerBox{h: h})
}

// SetHandler swaps the base handler directly (tests install a *Capture
// here) and returns the previous one so callers can restore it.
func SetHandler(h slog.Handler) slog.Handler {
	prev := baseHandler.Swap(&handlerBox{h: h})
	return prev.h
}

// SetLevel adjusts the minimum level without replacing the handler.
func SetLevel(level slog.Level) { levelVar.Set(level) }

// ParseLevel maps a flag value ("debug", "info", "warn", "error") to a
// slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// Logger returns a logger scoped to one component (attached as a
// "component" attribute). The logger follows later Configure/SetHandler
// calls, so packages may create it at init time.
func Logger(component string) *slog.Logger {
	return slog.New(&dynamicHandler{ops: []handlerOp{
		{attrs: []slog.Attr{slog.String("component", component)}},
	}})
}

// handlerOp replays one WithAttrs or WithGroup call onto the current
// base handler; ops preserve interleaving order.
type handlerOp struct {
	attrs []slog.Attr
	group string
}

// dynamicHandler delegates to whatever base handler is currently
// installed, so component loggers survive re-configuration.
type dynamicHandler struct{ ops []handlerOp }

func (d *dynamicHandler) delegate() slog.Handler {
	h := baseHandler.Load().h
	for _, op := range d.ops {
		if op.group != "" {
			h = h.WithGroup(op.group)
		} else {
			h = h.WithAttrs(op.attrs)
		}
	}
	return h
}

func (d *dynamicHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return level >= levelVar.Level() && baseHandler.Load().h.Enabled(ctx, level)
}

func (d *dynamicHandler) Handle(ctx context.Context, r slog.Record) error {
	return d.delegate().Handle(ctx, r)
}

func (d *dynamicHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return d
	}
	ops := append(append([]handlerOp{}, d.ops...), handlerOp{attrs: attrs})
	return &dynamicHandler{ops: ops}
}

func (d *dynamicHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return d
	}
	ops := append(append([]handlerOp{}, d.ops...), handlerOp{group: name})
	return &dynamicHandler{ops: ops}
}

// Capture is a slog.Handler that records every log entry in memory, for
// asserting on log output in tests:
//
//	c := obs.NewCapture(slog.LevelDebug)
//	defer obs.SetHandler(obs.SetHandler(c))
type Capture struct {
	level slog.Level

	mu      sync.Mutex
	entries []CapturedEntry
}

// CapturedEntry is one recorded log call.
type CapturedEntry struct {
	Level   slog.Level
	Message string
	Attrs   map[string]string
}

// NewCapture returns a capture handler accepting records at or above
// level.
func NewCapture(level slog.Level) *Capture { return &Capture{level: level} }

func (c *Capture) Enabled(_ context.Context, level slog.Level) bool { return level >= c.level }

func (c *Capture) Handle(_ context.Context, r slog.Record) error {
	e := CapturedEntry{Level: r.Level, Message: r.Message, Attrs: map[string]string{}}
	r.Attrs(func(a slog.Attr) bool {
		flattenAttr("", a, e.Attrs)
		return true
	})
	c.mu.Lock()
	c.entries = append(c.entries, e)
	c.mu.Unlock()
	return nil
}

func flattenAttr(prefix string, a slog.Attr, into map[string]string) {
	key := a.Key
	if prefix != "" {
		key = prefix + "." + a.Key
	}
	if a.Value.Kind() == slog.KindGroup {
		for _, g := range a.Value.Group() {
			flattenAttr(key, g, into)
		}
		return
	}
	into[key] = a.Value.Resolve().String()
}

// WithAttrs folds pre-bound attributes into every subsequent record.
func (c *Capture) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &captureWith{c: c, attrs: attrs}
}

// WithGroup is accepted but the group prefix is dropped: captured tests
// assert on leaf keys.
func (c *Capture) WithGroup(string) slog.Handler { return c }

// Entries returns a copy of everything captured so far.
func (c *Capture) Entries() []CapturedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CapturedEntry(nil), c.entries...)
}

// Contains reports whether any captured message contains substr.
func (c *Capture) Contains(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if strings.Contains(e.Message, substr) {
			return true
		}
	}
	return false
}

type captureWith struct {
	c     *Capture
	attrs []slog.Attr
}

func (w *captureWith) Enabled(ctx context.Context, level slog.Level) bool {
	return w.c.Enabled(ctx, level)
}

func (w *captureWith) Handle(ctx context.Context, r slog.Record) error {
	r = r.Clone()
	r.AddAttrs(w.attrs...)
	return w.c.Handle(ctx, r)
}

func (w *captureWith) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &captureWith{c: w.c, attrs: append(append([]slog.Attr{}, w.attrs...), attrs...)}
}

func (w *captureWith) WithGroup(string) slog.Handler { return w }
