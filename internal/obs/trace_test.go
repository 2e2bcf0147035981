package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndCounts(t *testing.T) {
	tr := NewTrace("build")
	s := tr.Start("resolve")
	s.Add("routed", 100)
	s.Add("unmapped", 3)
	s.Add("routed", 5)
	time.Sleep(time.Millisecond)
	s.End()
	tr.Start("cluster").End()

	if len(tr.Spans()) != 2 {
		t.Fatalf("spans = %d", len(tr.Spans()))
	}
	got, ok := tr.Span("resolve")
	if !ok {
		t.Fatal("span lookup miss")
	}
	if got.Count("routed") != 105 || got.Count("unmapped") != 3 {
		t.Errorf("counts: routed=%d unmapped=%d", got.Count("routed"), got.Count("unmapped"))
	}
	if got.Duration <= 0 {
		t.Errorf("duration = %v", got.Duration)
	}
	if c, _ := tr.Span("cluster"); c.Duration <= 0 {
		t.Errorf("zero-length span not clamped: %v", c.Duration)
	}
	if tr.Total() < got.Duration {
		t.Errorf("total %v < span %v", tr.Total(), got.Duration)
	}
	// Keys keep first-Add order for stable rendering.
	if keys := got.Counts(); len(keys) != 2 || keys[0] != "routed" || keys[1] != "unmapped" {
		t.Errorf("keys = %v", keys)
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("a")
	time.Sleep(time.Millisecond)
	d := s.End().Duration
	if s.End().Duration != d {
		t.Error("second End changed the duration")
	}
}

// TestSpanPause checks that a span paused between its two parts reports
// their summed time, not the wall time from its first start to End.
func TestSpanPause(t *testing.T) {
	tr := NewTrace("t")
	s := tr.Start("stats")
	time.Sleep(5 * time.Millisecond)
	s.Pause()
	s.Pause() // no-op
	time.Sleep(100 * time.Millisecond)
	s.Restart()
	time.Sleep(5 * time.Millisecond)
	d := s.End().Duration
	if d < 10*time.Millisecond || d >= 100*time.Millisecond {
		t.Errorf("duration = %v, want the two 5ms parts without the 100ms pause", d)
	}

	paused := tr.Start("ended-paused")
	time.Sleep(2 * time.Millisecond)
	paused.Pause()
	time.Sleep(100 * time.Millisecond)
	if d := paused.End().Duration; d < 2*time.Millisecond || d >= 100*time.Millisecond {
		t.Errorf("End on a paused span: duration = %v, want the 2ms part alone", d)
	}
}

func TestTraceString(t *testing.T) {
	tr := NewTrace("build")
	tr.Start("load-whois").Add("records", 10)
	s, _ := tr.Span("load-whois")
	s.End()
	out := tr.String()
	for _, want := range []string{"build:", "1 stages", "load-whois", "records=10"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestTraceLogValue(t *testing.T) {
	tr := NewTrace("build")
	tr.Start("resolve").Add("unmapped", 2)
	s, _ := tr.Span("resolve")
	s.End()
	v := tr.LogValue()
	if v.Kind().String() != "Group" {
		t.Fatalf("kind = %v", v.Kind())
	}
	var sawTotal, sawResolve bool
	for _, a := range v.Group() {
		switch a.Key {
		case "total":
			sawTotal = true
		case "resolve":
			sawResolve = true
		}
	}
	if !sawTotal || !sawResolve {
		t.Errorf("LogValue groups missing: total=%v resolve=%v", sawTotal, sawResolve)
	}
}

func TestTraceConcurrentStart(t *testing.T) {
	// The span list is locked: parallel loaders each Start their own
	// span from their own goroutine (validated under -race by make
	// verify). Each span still has a single writer.
	tr := NewTrace("build")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.Start(fmt.Sprintf("stage-%d", i))
			s.Add("records", int64(i))
			s.End()
		}(i)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(spans))
	}
	if tr.Total() <= 0 {
		t.Errorf("Total() = %v, want > 0", tr.Total())
	}
}

// TestTraceNestedSpans pins the semantics of spans opened while an
// enclosing span is still running (BuildFromDir's "build" span encloses
// the per-loader spans): spans list in Start order regardless of End
// order, each span times its own interval, and Total sums intervals —
// exceeding wall time when spans overlap, by design.
func TestTraceNestedSpans(t *testing.T) {
	tr := NewTrace("build")
	outer := tr.Start("build")
	time.Sleep(time.Millisecond)
	inner := tr.Start("load-whois")
	inner.Add("records", 7)
	time.Sleep(time.Millisecond)
	inner2 := tr.Start("load-bgp")
	time.Sleep(time.Millisecond)
	// Inner spans end before the outer one.
	inner.End()
	inner2.End()
	time.Sleep(time.Millisecond)
	outer.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for i, want := range []string{"build", "load-whois", "load-bgp"} {
		if spans[i].Name != want {
			t.Errorf("span[%d] = %q, want %q (Start order, not End order)", i, spans[i].Name, want)
		}
	}
	// The enclosing span covers its children's intervals.
	if outer.Duration < inner.Duration || outer.Duration < inner2.Duration {
		t.Errorf("outer %v shorter than nested %v/%v", outer.Duration, inner.Duration, inner2.Duration)
	}
	if outer.Duration < 4*time.Millisecond {
		t.Errorf("outer = %v, want >= 4ms", outer.Duration)
	}
	// Total double-counts nested time: it is per-stage accounting, not
	// wall time.
	if tr.Total() <= outer.Duration {
		t.Errorf("Total %v should exceed the enclosing span %v with nested spans", tr.Total(), outer.Duration)
	}
	// Nested counts stay on their own span.
	if outer.Count("records") != 0 || inner.Count("records") != 7 {
		t.Errorf("counts leaked across nesting: outer=%d inner=%d", outer.Count("records"), inner.Count("records"))
	}
	// Rendering keeps one line per span, nested or not.
	out := tr.String()
	if !strings.Contains(out, "3 stages") {
		t.Errorf("String() = %q, want 3 stages", out)
	}
}

func TestSpanWorkersRendering(t *testing.T) {
	tr := NewTrace("build")
	tr.Start("resolve").SetWorkers(4).Add("routed", 100)
	s, _ := tr.Span("resolve")
	s.End()
	tr.Start("stats").End()

	out := tr.String()
	if !strings.Contains(out, "resolve") || !strings.Contains(out, "[x4]") {
		t.Errorf("String() missing workers annotation:\n%s", out)
	}
	if strings.Contains(out, "stats") && strings.Contains(strings.Split(out, "stats")[1], "[x") {
		t.Errorf("serial span rendered a workers annotation:\n%s", out)
	}
	// Workers is an annotation, not a count: the count keys must be
	// unchanged so serial and parallel traces stay comparable.
	if got := s.Counts(); len(got) != 1 || got[0] != "routed" {
		t.Errorf("Counts() = %v, want [routed]", got)
	}
	var sawWorkers bool
	for _, a := range tr.LogValue().Group() {
		if a.Key != "resolve" {
			continue
		}
		for _, sub := range a.Value.Group() {
			if sub.Key == "workers" && sub.Value.Int64() == 4 {
				sawWorkers = true
			}
		}
	}
	if !sawWorkers {
		t.Error("LogValue missing workers=4 on the resolve span")
	}
}
