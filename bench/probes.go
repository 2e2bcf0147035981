package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"runtime"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/httpd"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/whoisd"
)

// The layer probes run in the traced run only, after the timed loop:
// each calls one layer's public API in-process, with no socket, on the
// same queries the workload sent, and records one span per probe.

// prober times fn over n calls and records ns and allocations per call.
type prober struct {
	tr     *tracer
	parent int
	layers map[string]float64
	quick  bool
}

// scaled shrinks an iteration count in -quick mode.
func (p *prober) scaled(n int) int {
	if p.quick {
		return max(n/100, 100)
	}
	return n
}

func (p *prober) run(spanName string, n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	n = p.scaled(n)
	var before, after runtime.MemStats
	_, end := p.tr.begin(spanName, p.parent)
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(t)
	runtime.ReadMemStats(&after)
	end()
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// nullWriter is a reusable http.ResponseWriter that keeps nothing.
type nullWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *nullWriter) Header() http.Header { return w.header }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}

func handlerRequests(qs []query) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(qs))
	for i := range qs {
		path, raw := qs[i].httpPath()
		if raw != "" {
			path = raw
		}
		req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

// pinOnce is the pin every handler takes per request: acquire the
// current snapshot, use it, release.
func pinOnce(st *store.Store) uint64 {
	snap, release := st.Acquire()
	defer release()
	return snap.Version
}

// probeHot covers what a cache hit costs: the snapshot pin and the
// handler up to the cached write.
func (p *prober) probeHot(ds *prefix2org.Dataset, hot []query, clientP50ms float64) error {
	st := store.New(&store.Snapshot{Dataset: ds})
	ns, allocs := p.run("store.Acquire", 2_000_000, func(int) { pinOnce(st) })
	p.layers["store.acquire_ns"], p.layers["store.acquire_allocs"] = ns, allocs
	ns, _ = p.run("store.Swap", 20_000, func(int) { st.Swap(&store.Snapshot{Dataset: ds}) })
	p.layers["store.swap_us"] = ns / 1e3

	reqs, err := handlerRequests(hot)
	if err != nil {
		return err
	}
	h := httpd.New(st, httpd.DefaultConfig()).Handler()
	w := &nullWriter{header: http.Header{}}
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	ns, allocs = p.run("httpd.Handler(hit)", 400_000, func(i int) { h.ServeHTTP(w, reqs[i%len(reqs)]) })
	p.layers["httpd.handler_hit_ns"], p.layers["httpd.handler_hit_allocs"] = ns, allocs
	p.layers["httpd.socket_overhead_us"] = clientP50ms*1e3 - ns/1e3
	return nil
}

// probeCold walks the lookup rung from the bottom — address parse, bare
// LPM, dataset lookups on the eager and the view-backed form — up to a
// handler request that misses the cache.
func (p *prober) probeCold(eager, view *prefix2org.Dataset, cold []query, clientP50ms float64) error {
	var texts [][]byte
	var addrs []netip.Addr
	var prefixes []netip.Prefix
	var clusters []string
	for i := range cold {
		switch q := &cold[i]; q.Kind {
		case kindAddr:
			texts = append(texts, []byte(q.Text))
			addrs = append(addrs, netip.MustParseAddr(q.Text))
		case kindPrefix:
			prefixes = append(prefixes, netip.MustParsePrefix(q.Text))
		case kindOrg:
			if _, ok := view.ClusterByID(q.Text); ok {
				clusters = append(clusters, q.Text)
			}
		}
	}
	if len(addrs) == 0 || len(prefixes) == 0 || len(clusters) == 0 {
		return fmt.Errorf("cold stream lacks a query kind (%d addrs, %d prefixes, %d cluster ids)", len(addrs), len(prefixes), len(clusters))
	}

	p.layers["netx.parse_addr_ns"], _ = p.run("netx.ParseAddrBytes", 2_000_000, func(i int) { netx.ParseAddrBytes(texts[i%len(texts)]) })

	items := make([]lpm.Item, eager.NumRecords())
	for i := range items {
		items[i] = lpm.Item{Prefix: eager.RecordAt(i).Prefix, Val: int32(i)}
	}
	ix := lpm.Freeze(items)
	p.layers["lpm.lookup_ns"], _ = p.run("lpm.Index.Lookup", 2_000_000, func(i int) { ix.Lookup(addrs[i%len(addrs)]) })

	p.layers["prefix2org.lookup_addr_ns"], _ = p.run("prefix2org.LookupAddr(eager)", 2_000_000, func(i int) { eager.LookupAddr(addrs[i%len(addrs)]) })
	// One untimed pass materializes the view's lazy record chunks.
	for _, a := range addrs {
		view.LookupAddr(a)
	}
	p.layers["prefix2org.lookup_addr_view_ns"], p.layers["prefix2org.lookup_allocs"] =
		p.run("prefix2org.LookupAddr(view)", 2_000_000, func(i int) { view.LookupAddr(addrs[i%len(addrs)]) })
	p.layers["prefix2org.lookup_covering_ns"], _ = p.run("prefix2org.LookupCovering(view)", 1_000_000, func(i int) { view.LookupCovering(prefixes[i%len(prefixes)]) })
	p.layers["prefix2org.cluster_by_id_ns"], _ = p.run("prefix2org.ClusterByID(view)", 1_000_000, func(i int) { view.ClusterByID(clusters[i%len(clusters)]) })

	// Every request of a pass over distinct queries misses a fresh
	// cache; the pass is longer than the cache, so it also evicts.
	misses := cold[:min(len(cold), 20_000)]
	reqs, err := handlerRequests(misses)
	if err != nil {
		return err
	}
	h := httpd.New(store.New(&store.Snapshot{Dataset: view}), httpd.DefaultConfig()).Handler()
	w := &nullWriter{header: http.Header{}}
	ns, allocs := p.run("httpd.Handler(miss)", len(reqs), func(i int) { h.ServeHTTP(w, reqs[i%len(reqs)]) })
	p.layers["httpd.handler_miss_ns"], p.layers["httpd.handler_miss_allocs"] = ns, allocs
	p.layers["httpd.socket_overhead_us"] = clientP50ms*1e3 - ns/1e3
	return nil
}

// probeBulk times the bulk endpoint's per-line path without a socket,
// and the LPM at the paper's scale: a million random prefixes, where
// the binary search leaves the caches.
func (p *prober) probeBulk(view *prefix2org.Dataset, body *bulkBody, seed int64) error {
	h := httpd.New(store.New(&store.Snapshot{Dataset: view}), httpd.DefaultConfig()).Handler()
	w := &nullWriter{header: http.Header{}}
	lines := len(body.want)
	ns, allocs := p.run("httpd.Handler(bulk)", 200, func(int) {
		req, err := http.NewRequest(http.MethodPost, "http://bench/v1/bulk", bytes.NewReader(body.data))
		if err == nil {
			h.ServeHTTP(w, req)
		}
	})
	if w.status != 0 && w.status != http.StatusOK {
		return fmt.Errorf("in-process bulk: status %d", w.status)
	}
	p.layers["httpd.bulk_line_ns"] = ns / float64(lines)
	p.layers["httpd.bulk_allocs_per_line"] = allocs / float64(lines)

	texts := bytes.Split(bytes.TrimSpace(body.data), []byte{'\n'})
	p.layers["netx.parse_addr_ns"], _ = p.run("netx.ParseAddrBytes", 2_000_000, func(i int) { netx.ParseAddrBytes(texts[i%len(texts)]) })

	rng := rand.New(rand.NewSource(derive(seed, "lpm-1m")))
	items := make([]lpm.Item, p.scaled(1_000_000))
	for i := range items {
		a := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		items[i] = lpm.Item{Prefix: netip.PrefixFrom(a, 12+rng.Intn(13)).Masked(), Val: int32(i)}
	}
	addrs := make([]netip.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	var ix *lpm.Index
	_, end := p.tr.begin("lpm.Freeze(1m)", p.parent)
	t := time.Now()
	ix = lpm.Freeze(items)
	p.layers["lpm.freeze_s.1m"] = time.Since(t).Seconds()
	end()
	p.layers["lpm.lookup_ns.1m"], _ = p.run("lpm.Index.Lookup(1m)", 2_000_000, func(i int) { ix.Lookup(addrs[i%len(addrs)]) })
	return nil
}

// probeWhois times whoisd's answer path without the dial.
func (p *prober) probeWhois(view *prefix2org.Dataset, qs []query, clientP50ms float64) {
	srv := whoisd.New(store.New(&store.Snapshot{Dataset: view}))
	ns, allocs := p.run("whoisd.Server.Answer", 200_000, func(i int) { srv.Answer(qs[i%len(qs)].Text) })
	p.layers["whoisd.answer_ns"], p.layers["whoisd.answer_allocs"] = ns, allocs
	p.layers["whoisd.tcp_roundtrip_us"] = clientP50ms*1e3 - ns/1e3
}
