package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// clientWorkers is the number of client goroutines, each with its own
// connection: the sandbox has two cores, shared with the daemon.
const clientWorkers = 2

// exchange runs request i of one worker and returns the verified work
// it completed (1 per single query, result lines for a bulk request).
// Any transport error, 5xx, or verification mismatch is an error.
type exchange func(ctx context.Context, i int) (ops int, err error)

// loadSpec describes one measured loop.
type loadSpec struct {
	dur time.Duration
	// rate is the open-loop schedule in requests per second across all
	// workers; 0 selects a closed loop, where each worker sends its next
	// request as soon as the previous one completed.
	rate float64
	// client builds worker w's exchange and its cleanup.
	client func(w int) (exchange, func())
	// spanName, with tr non-nil, records one span per request.
	tr       *tracer
	spanName string
	parent   int
}

// sample is one verified exchange: when it started (closed loop) or was
// due (open loop) relative to the start of the window, how long it took
// from then, and the work it completed.
type sample struct {
	at  time.Duration
	lat time.Duration
	ops int
}

type loadResult struct {
	dur       time.Duration
	samples   []sample
	attempted int64
	failed    int64
	late      int64 // open loop: requests sent > 1 ms after they were due
}

// slicesPerWindow is how many equal slices each measured window is cut
// into. The shared host slows down in bursts of a few seconds, and a
// fresh process sometimes lands in a slower mode for its whole life;
// noise of both kinds only ever adds time. So a run measures one window
// on each of its instances, every metric is computed per slice, and the
// second best slice of the run is reported: it is untouched as long as
// two slices anywhere in the run were undisturbed.
const slicesPerWindow = 2

// summarize reduces a run's windows to its three end-to-end numbers.
// Per slice: work completed per second by the requests that started in
// it, their median latency and their tail (tailIndex). Reported: the
// second best slice, each metric on its own.
func summarize(windows []loadResult) (opsPerSec, p50ms, tailms float64) {
	var tp, p50, tail []float64
	for _, r := range windows {
		if r.dur <= 0 {
			continue
		}
		width := r.dur / slicesPerWindow
		var ops [slicesPerWindow]int
		var lat [slicesPerWindow][]time.Duration
		var first, last [slicesPerWindow]time.Duration
		for _, s := range r.samples {
			i := min(int(s.at/width), slicesPerWindow-1)
			if len(lat[i]) == 0 || s.at < first[i] {
				first[i] = s.at
			}
			last[i] = max(last[i], s.at+s.lat)
			ops[i] += s.ops
			lat[i] = append(lat[i], s.lat)
		}
		for i := range lat {
			if len(lat[i]) == 0 {
				continue
			}
			m, t := latencySummary(lat[i])
			// Over the time the slice's requests actually spanned, first
			// start to last completion — not the nominal width, which
			// would make an open loop read its own schedule back.
			tp = append(tp, float64(ops[i])/(last[i]-first[i]).Seconds())
			p50 = append(p50, m)
			tail = append(tail, t)
		}
	}
	if len(tp) == 0 {
		return 0, 0, 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(tp)))
	sort.Float64s(p50)
	sort.Float64s(tail)
	second := min(1, len(tp)-1)
	return tp[second], p50[second], tail[second]
}

// openLoopGrace is how long past the window an open loop may keep
// draining its backlog; what is still unsent then was never answered.
const openLoopGrace = 2 * time.Second

// runLoad drives spec with clientWorkers workers and merges what they
// measured. Closed loop: a slow system receives less load, as callers
// that wait for a reply behave. Open loop: requests are due on a fixed
// schedule whatever the system does, latency is timed from the due
// time, so a stall is charged to every request it delayed.
func runLoad(ctx context.Context, spec loadSpec) loadResult {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   = loadResult{dur: spec.dur}
		shown   int
		perWork [clientWorkers][]sample
	)
	interval := time.Duration(0)
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	start := time.Now()
	deadline := start.Add(spec.dur)
	for w := 0; w < clientWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			do, done := spec.client(w)
			defer done()
			var res loadResult
			buf := make([]sample, 0, 1<<17)
			for i := 0; ctx.Err() == nil; i++ {
				t0 := time.Now()
				if interval > 0 {
					due := start.Add(time.Duration(i*clientWorkers+w) * interval)
					if !due.Before(deadline) {
						break
					}
					if t0.After(deadline.Add(openLoopGrace)) {
						// Scheduled but never sent: count what is left.
						left := int64(deadline.Sub(due)/(interval*clientWorkers)) + 1
						res.attempted += left
						res.failed += left
						break
					}
					if wait := due.Sub(t0); wait > 0 {
						time.Sleep(wait)
					}
					if time.Since(due) > time.Millisecond {
						res.late++
					}
					t0 = due
				} else if !t0.Before(deadline) {
					break
				}
				ops, err := do(ctx, i)
				lat := time.Since(t0)
				res.attempted++
				if err != nil {
					res.failed++
					mu.Lock()
					if shown < 5 {
						shown++
						fmt.Fprintf(diag, "p2obench: request failed: %v\n", err)
					}
					mu.Unlock()
					continue
				}
				buf = append(buf, sample{t0.Sub(start), lat, ops})
			}
			mu.Lock()
			total.attempted += res.attempted
			total.failed += res.failed
			total.late += res.late
			perWork[w] = buf
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for w := range perWork {
		total.samples = append(total.samples, perWork[w]...)
		if spec.tr != nil {
			for i, s := range perWork[w] {
				spec.tr.add(spec.spanName, spec.parent, int64(w)<<32|int64(i), start.Add(s.at), start.Add(s.at+s.lat))
			}
		}
	}
	return total
}
