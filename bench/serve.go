package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
)

// Stream sizes. The cold stream is far longer than httpd's 4096-entry
// response cache, so wrapping around it (a run sends about 150 k
// requests) still misses: FIFO eviction has long dropped the entry.
const (
	hotQueries  = 512
	coldQueries = 1 << 18
	warmQueries = 4096
	bulkBodies  = 32
	bulkLines   = 10_000
	reloadRate  = 2000 // requests per second, open loop
)

// instances is how many times a run starts the program under test
// afresh. Each instance is set up (timed: setup_s is the median) and
// measured for an equal share of the window; see slicesPerWindow.
const instances = 3

func instanceCount(quick bool) int {
	if quick {
		return 1
	}
	return instances
}

// measured is what one workload run produced, before it is folded into
// the catalogue's metric names.
type measured struct {
	setup     []float64 // seconds, one per instance
	rss       []float64 // MB, one per instance
	opsPerSec float64
	p50ms     float64
	p99ms     float64
	samples   int
	attempted int64
	failed    int64
	problems  []string
	layers    map[string]float64
	digest    string
}

type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	quick    bool
	traceOut string
	work     string // scratch directory of this run
	binDir   string
}

func (c *runConfig) scaled(n int) int {
	if c.quick {
		return max(n/16, 64)
	}
	return n
}

// window is each instance's share of the measured time.
func (c *runConfig) window() time.Duration {
	return c.dur / time.Duration(instanceCount(c.quick))
}

// count adds a loop's accounting to m.
func (m *measured) count(r loadResult) {
	m.attempted += r.attempted
	m.failed += r.failed
	m.samples += len(r.samples)
}

// addCounters adds what a daemon's counters gained between two scrapes
// — the measured window, without the warm pass — to the run's totals.
func addCounters(sum, before, after map[string]float64) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

// runServe measures one of the snapshot-daemon workloads: http-hot,
// http-cold, http-bulk, whois-dial.
func runServe(ctx context.Context, c runConfig, in *inputs, tr *tracer) (*measured, error) {
	m := &measured{layers: map[string]float64{}}
	bin, p99Gauge := filepath.Join(c.binDir, "p2o-httpd"), "httpd_query_seconds_p99"
	if c.workload == "whois-dial" {
		bin, p99Gauge = filepath.Join(c.binDir, "p2o-whoisd"), "whoisd_query_seconds_p99"
	}
	var (
		eager   *prefix2org.Dataset
		ref     *prefix2org.Dataset
		stream  *streams
		windows []loadResult
		plainTP float64
		scrapes = map[string]float64{}
		lastP99 float64
	)
	for i := 0; i < instanceCount(c.quick); i++ {
		// Set-up: what stands between input files on disk and a daemon
		// ready to be measured — build, save the v2 snapshot, start the
		// daemon on it, first healthy answer, warm pass. Each instance
		// gets its own snapshot file: a daemon maps it.
		snap := filepath.Join(c.work, fmt.Sprintf("serve-%d.snap", i))
		sid, end := tr.begin("setup", 0)
		t0 := time.Now()
		ds, err := prefix2org.BuildFromDir(ctx, in.dirs[0], prefix2org.Options{})
		if err != nil {
			return nil, err
		}
		if err := ds.SaveBinaryFile(snap); err != nil {
			return nil, err
		}
		built := time.Since(t0)
		tr.add("prefix2org.BuildFromDir+SaveBinaryFile", sid, 0, t0, t0.Add(built))
		if stream == nil {
			// The bench's own preparation, not the program's set-up:
			// the reference view the answers are checked against and
			// the request streams drawn from it.
			if ref, err = prefix2org.OpenSnapshotFile(ctx, snap, prefix2org.OpenOptions{}); err != nil {
				return nil, err
			}
			defer ref.Close()
			eager = ds
			stream = makeStreams(&c, ref, nil)
			m.digest = stream.digest
		}
		t1 := time.Now()
		d, err := startDaemon(ctx, bin, "-snapshot", snap, "-snapshot-mmap")
		if err != nil {
			return nil, err
		}
		defer d.stop()
		if err := stream.warm(ctx, &c, d, ref); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		started := time.Since(t1)
		tr.add("daemon start+warm", sid, 0, t1, t1.Add(started))
		end()
		m.setup = append(m.setup, (built + started).Seconds())

		before, err := d.metrics(ctx)
		if err != nil {
			return nil, err
		}

		// Measure this instance. In a traced run the first instance runs
		// without spans: its throughput is the base of the overhead.
		spec := loadSpec{dur: c.window(), client: stream.client(&c, d, staticRef(ref))}
		traced := tr != nil && (i > 0 || instanceCount(c.quick) == 1)
		endWindow := func() {}
		if traced {
			spec.tr, spec.spanName = tr, c.workload+".request"
			spec.parent, endWindow = tr.begin("measured-window", 0)
		}
		res := runLoad(ctx, spec)
		endWindow()
		m.count(res)
		if tr != nil && !traced {
			plainTP, _, _ = summarize([]loadResult{res})
		} else {
			windows = append(windows, res)
		}

		rss, err := d.rssMB()
		if err != nil {
			return nil, err
		}
		m.rss = append(m.rss, rss)
		scrape, err := d.metrics(ctx)
		if err != nil {
			return nil, err
		}
		addCounters(scrapes, before, scrape)
		lastP99 = scrape[p99Gauge]
		d.stop()
	}
	m.opsPerSec, m.p50ms, m.p99ms = summarize(windows)
	if plainTP > 0 {
		m.layers["trace.overhead_share"] = 1 - m.opsPerSec/plainTP
	}
	m.layers["loadgen.requests"] = float64(m.samples)

	if c.workload == "whois-dial" {
		m.layers["whoisd.server_p99_ms"] = lastP99 * 1e3
	} else {
		hits, misses := scrapes["httpd_cache_hits_total"], scrapes["httpd_cache_misses_total"]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		m.layers["httpd.cache_hit_ratio"] = ratio
		m.layers["httpd.cache_evictions"] = scrapes["httpd_cache_evictions_total"]
		m.layers["httpd.server_p99_ms"] = lastP99 * 1e3
		// The workloads must exercise, or bypass, the cache they were
		// chosen for; a run where they do not is not the workload.
		switch {
		case c.quick:
			// The smoke world is smaller than the cache.
		case c.workload == "http-hot" && ratio < 0.99:
			m.problems = append(m.problems, fmt.Sprintf("http-hot: cache hit ratio %.4f < 0.99", ratio))
		case c.workload == "http-cold" && ratio > 0.05:
			m.problems = append(m.problems, fmt.Sprintf("http-cold: cache hit ratio %.4f > 0.05", ratio))
		}
	}

	if tr != nil {
		id, end := tr.begin("layer-probes", 0)
		defer end()
		p := &prober{tr: tr, parent: id, layers: m.layers, quick: c.quick}
		switch c.workload {
		case "http-hot":
			return m, p.probeHot(ref, stream.hot, m.p50ms)
		case "http-cold":
			return m, p.probeCold(eager, ref, stream.cold, m.p50ms)
		case "http-bulk":
			return m, p.probeBulk(ref, &stream.bulk[0], c.seed)
		case "whois-dial":
			p.probeWhois(ref, stream.cold, m.p50ms)
		}
	}
	return m, nil
}

// streams holds a run's pre-generated requests.
type streams struct {
	hot    []query
	cold   []query
	warmup []query
	bulk   []bulkBody
	digest string
}

// makeStreams draws the workload's requests from ref. Queries must be
// answered alike by every dataset in also (the other step directory of
// the reload workload).
func makeStreams(c *runConfig, ref *prefix2org.Dataset, also []*prefix2org.Dataset) *streams {
	g := newQueryGen(ref, derive(c.seed, "queries-"+c.workload))
	g.also = also
	s := &streams{}
	h := sha256.New()
	switch c.workload {
	case "http-hot":
		s.hot = g.stream(hotQueries)
		digestQueries(h, s.hot)
	case "http-bulk":
		s.bulk = makeBulkBodies(g, c.scaled(bulkBodies), c.scaled(bulkLines))
		for i := range s.bulk {
			h.Write(s.bulk[i].data)
		}
	case "whois-dial":
		s.cold = whoisStream(g, c.scaled(coldQueries))
		s.warmup = whoisStream(g, c.scaled(warmQueries))
		digestQueries(h, s.cold)
	default:
		s.cold = g.stream(c.scaled(coldQueries))
		s.warmup = g.stream(c.scaled(warmQueries))
		digestQueries(h, s.cold)
	}
	s.digest = hex.EncodeToString(h.Sum(nil))
	return s
}

// warm sends the warm-up requests over one connection: the hot set
// once (it fills the response cache), otherwise a separate stream that
// pages the snapshot in and materializes the lazy view.
func (s *streams) warm(ctx context.Context, c *runConfig, d *daemon, ref *prefix2org.Dataset) error {
	switch c.workload {
	case "http-bulk":
		w := newHTTPWorker(d.addr)
		defer w.close()
		for i := 0; i < 2 && i < len(s.bulk); i++ {
			if _, err := w.post(ctx, &s.bulk[i], i); err != nil {
				return err
			}
		}
	case "whois-dial":
		w := newWhoisWorker(d.addr)
		for i := range s.warmup {
			if err := w.query(ctx, &s.warmup[i], false, ref); err != nil {
				return err
			}
		}
	default:
		qs := s.warmup
		if c.workload == "http-hot" {
			qs = s.hot
		}
		w := newHTTPWorker(d.addr)
		defer w.close()
		for i := range qs {
			if err := w.get(ctx, &qs[i], false, staticRef(ref)); err != nil {
				return err
			}
		}
	}
	return nil
}

// client returns the per-worker exchange of the workload's measured
// loop. Worker w takes every clientWorkers-th request of the stream, so
// the two connections never send the same cold query.
func (s *streams) client(c *runConfig, d *daemon, ref refFor) func(w int) (exchange, func()) {
	return func(w int) (exchange, func()) {
		full := func(i int) bool { return i%verifyEvery == w }
		switch c.workload {
		case "http-bulk":
			hw := newHTTPWorker(d.addr)
			return func(ctx context.Context, i int) (int, error) {
				return hw.post(ctx, &s.bulk[(i*clientWorkers+w)%len(s.bulk)], i)
			}, hw.close
		case "whois-dial":
			ww := newWhoisWorker(d.addr)
			return func(ctx context.Context, i int) (int, error) {
				return 1, ww.query(ctx, &s.cold[(i*clientWorkers+w)%len(s.cold)], full(i), ref(0))
			}, func() {}
		}
		qs := s.cold
		if c.workload == "http-hot" {
			qs = s.hot
		}
		hw := newHTTPWorker(d.addr)
		return func(ctx context.Context, i int) (int, error) {
			return 1, hw.get(ctx, &qs[(i*clientWorkers+w)%len(qs)], full(i), ref)
		}, hw.close
	}
}

// runUnderReload is the reads-beside-writes workload. One op is one
// delta reload of the eager -data daemon: the bench flips the data
// directory between s0 and the evolved s1 and issues the synchronous
// GET /reload, back to back, while an open loop of verified queries
// runs against the same daemon. The reload is what is timed end to
// end; the queries' latency from their due time is reported per layer,
// because a tail made of a handful of stalls per run does not repeat
// (see README: known limits).
func runUnderReload(ctx context.Context, c runConfig, in *inputs, tr *tracer) (*measured, error) {
	m := &measured{layers: map[string]float64{}}
	bin := filepath.Join(c.binDir, "p2o-httpd")

	// Reference datasets, one per step directory: the snapshot version
	// in each answer says which one it must agree with.
	refs := make([]*prefix2org.Dataset, len(in.dirs))
	for i, dir := range in.dirs {
		ds, err := prefix2org.BuildFromDir(ctx, dir, prefix2org.Options{})
		if err != nil {
			return nil, err
		}
		refs[i] = ds
	}
	ref := func(version uint64) *prefix2org.Dataset {
		return refs[(max(version, 1)-1)%uint64(len(refs))]
	}
	stream := makeStreams(&c, refs[0], refs[1:])
	m.digest = stream.digest
	rate := float64(reloadRate)
	if c.quick {
		rate /= 4
	}

	live := filepath.Join(c.work, "live")
	var (
		reloadLat []time.Duration
		queryLat  []time.Duration
		late      int64
		scrapes   = map[string]float64{}
	)
	for i := 0; i < instanceCount(c.quick); i++ {
		if err := copyDir(in.dirs[0], live); err != nil {
			return nil, err
		}
		// Set-up: the daemon builds its first snapshot itself.
		_, end := tr.begin("setup", 0)
		t0 := time.Now()
		d, err := startDaemon(ctx, bin, "-data", live, "-reload-delta")
		if err != nil {
			return nil, err
		}
		defer d.stop()
		if err := stream.warm(ctx, &c, d, refs[0]); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		end()
		m.setup = append(m.setup, time.Since(t0).Seconds())
		before, err := d.metrics(ctx)
		if err != nil {
			return nil, err
		}

		// The reloader: flip, reload, again, until the window closes.
		var (
			wg        sync.WaitGroup
			reloadErr error
		)
		deadline := time.Now().Add(c.window())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next := 1; time.Now().Before(deadline) && ctx.Err() == nil; next = (next + 1) % len(in.dirs) {
				if reloadErr = copyDir(in.dirs[next], live); reloadErr != nil {
					return
				}
				t := time.Now()
				if _, reloadErr = d.get(ctx, "/reload"); reloadErr != nil {
					return
				}
				reloadLat = append(reloadLat, time.Since(t))
				tr.add("GET /reload", 0, 0, t, time.Now())
			}
		}()
		spec := loadSpec{dur: c.window(), rate: rate, client: stream.client(&c, d, ref)}
		endWindow := func() {}
		if tr != nil {
			spec.tr, spec.spanName = tr, c.workload+".request"
			spec.parent, endWindow = tr.begin("measured-window", 0)
		}
		res := runLoad(ctx, spec)
		endWindow()
		wg.Wait()
		m.count(res)
		late += res.late
		for _, s := range res.samples {
			queryLat = append(queryLat, s.lat)
		}
		if reloadErr != nil {
			m.attempted++
			m.failed++
			m.problems = append(m.problems, "reload: "+reloadErr.Error())
		}

		rss, err := d.rssMB()
		if err != nil {
			return nil, err
		}
		m.rss = append(m.rss, rss)
		scrape, err := d.metrics(ctx)
		if err != nil {
			return nil, err
		}
		addCounters(scrapes, before, scrape)
		d.stop()
	}

	reloads := len(reloadLat)
	m.attempted += int64(reloads)
	var busy time.Duration
	for _, l := range reloadLat {
		busy += l
	}
	if busy > 0 {
		m.opsPerSec = float64(reloads) / busy.Seconds()
	}
	m.p50ms, m.p99ms = latencySummary(reloadLat)

	m.layers["store.reload_s"] = busy.Seconds()
	m.layers["store.delta_reloads"] = scrapes["store_delta_reloads_total"]
	m.layers["store.delta_fallbacks"] = scrapes["store_delta_fallbacks_total"]
	m.layers["store.reloads_noop"] = scrapes["store_reloads_noop_total"]
	m.layers["httpd.cache_inv_partial"] = scrapes[`httpd_cache_invalidations_total{kind="partial"}`]
	m.layers["httpd.cache_inv_full"] = scrapes[`httpd_cache_invalidations_total{kind="full"}`]
	m.layers["httpd.cache_partial_drops"] = scrapes["httpd_cache_partial_drops_total"]
	m.layers["httpd.cache_evictions"] = scrapes["httpd_cache_evictions_total"]
	if hits, misses := scrapes["httpd_cache_hits_total"], scrapes["httpd_cache_misses_total"]; hits+misses > 0 {
		m.layers["httpd.cache_hit_ratio"] = hits / (hits + misses)
	}
	m.layers["loadgen.requests"] = float64(len(queryLat))
	if n := len(queryLat); n > 0 {
		m.layers["loadgen.late_share"] = float64(late) / float64(n)
	}
	m.layers["loadgen.p50_ms"], m.layers["loadgen.p99_ms"] = latencySummary(queryLat)
	if n := scrapes["store_delta_fallbacks_total"]; n != 0 {
		m.problems = append(m.problems, fmt.Sprintf("%v delta reloads fell back to a full rebuild", n))
	}
	if got := int(scrapes["store_delta_reloads_total"]); got != reloads {
		m.problems = append(m.problems, fmt.Sprintf("%d reloads issued, %d were delta reloads", reloads, got))
	}
	if reloads == 0 {
		m.problems = append(m.problems, "no reload ran inside the window")
	}
	return m, nil
}
