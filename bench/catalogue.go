package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// The catalogue is the single table the benchmark's names come from:
// BENCHMARK.json is generated from it (-benchmark-json) and a unit test
// holds the committed file to it, -list prints it, and every result line
// is assembled by walking it, so a metric cannot be reported under a
// name the contract does not declare.

// runSeconds is the measured window of one run; BENCHMARK.json passes
// it back as --seconds.
const runSeconds = 8

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"build-full", "batch user: BuildFromDir + save + mmap open + 1000 lookups per op; every build-ladder layer works here, none in the serve workloads"},
	{"reload-delta", "chained BuildDelta over bgp-only, whois+bgp and revert steps; the parse/resolve/cluster layers run incrementally, writes beside reads"},
	{"http-hot", "closed loop, 2 keep-alive conns, 512 repeated queries: ~100% response-cache hits, so socket+mux+cache work and lookup/encode are bypassed"},
	{"http-cold", "closed loop, 2 conns, fresh draws over every record: working set far above the 4096-entry cache, so parse, view lookup, encode and evict work"},
	{"http-bulk", "closed loop, 2 conns, POST /v1/bulk with 10000-line bodies: per-line parse+LPM+append dominates, socket and cache cost is amortised away"},
	{"whois-dial", "closed loop, 2 clients, one RFC 3912 dial+line+read-to-EOF per query against p2o-whoisd: accept path and the third front end"},
	{"serve-under-reload", "one op is one delta reload of p2o-httpd -data -reload-delta, back to back, while an open loop of 2000 verified req/s is served: reads beside writes"},
}

// metricSpec is one catalogue row. Bound is set on end-to-end metrics
// only; Source and Moves are documentation printed by -list.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Source says which workload's traced run fills a per-layer metric
	// (it reads 0 elsewhere); Moves names the end-to-end metric it
	// should move.
	Source string
	Moves  string
}

// The bounds are what the shared two-core sandbox can resolve between two
// sets of ten runs, not what the code deserves: the same commit moves by
// 10-20% on every time metric between quiet and busy minutes of the host
// (README, "End-to-end metrics"). Smaller changes are claimed with the
// paired protocol.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	srcBuild  = "build-full"
	srcDelta  = "reload-delta"
	srcHot    = "http-hot"
	srcCold   = "http-cold"
	srcBulk   = "http-bulk"
	srcWhois  = "whois-dial"
	srcReload = "serve-under-reload"
	srcServe  = "every serve workload"
	srcAll    = "every workload"
)

var perLayer = []metricSpec{
	// Input generation is the benchmark's own cost, kept out of setup_s.
	{Name: "synth.generate_s", Unit: "s", Better: "lower", Source: srcAll, Moves: "wall time of a run only"},
	{Name: "synth.evolve_s", Unit: "s", Better: "lower", Source: srcDelta + ", " + srcReload, Moves: "wall time of a run only"},
	{Name: "synth.write_s", Unit: "s", Better: "lower", Source: srcAll, Moves: "wall time of a run only"},

	// Build ladder, from Dataset.Trace of each timed build.
	{Name: "whois.load_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "bgp.load_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "rpki.load_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "as2org.load_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "delegated.verify_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "prefix2org.flatten_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "prefix2org.resolve_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "names.clean_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "cluster.cluster_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "lpm.freeze_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "prefix2org.stats_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "prefix2org.build_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full"},
	{Name: "prefix2org.build_allocs", Unit: "count", Better: "lower", Source: srcBuild, Moves: "rss_mb on build-full"},
	{Name: "prefix2org.build_alloc_mb", Unit: "MB", Better: "lower", Source: srcBuild, Moves: "rss_mb on build-full"},

	// Codec.
	{Name: "prefix2org.save_v2_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full, setup_s on serve workloads"},
	{Name: "prefix2org.open_view_ms", Unit: "ms", Better: "lower", Source: srcBuild, Moves: "p50_ms on build-full, setup_s on serve workloads"},
	{Name: "prefix2org.snapshot_mb", Unit: "MB", Better: "lower", Source: srcBuild, Moves: "rss_mb on serve workloads"},
	{Name: "prefix2org.load_v2_eager_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "none today (no workload loads eagerly from a file)"},
	{Name: "prefix2org.save_v1_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "none (codec slated for deletion)"},
	{Name: "prefix2org.save_json_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "none (export format)"},
	{Name: "prefix2org.materialize_all_s", Unit: "s", Better: "lower", Source: srcBuild, Moves: "rss_mb on http-cold"},
	{Name: "rtr.vrps_from_repo_ms", Unit: "ms", Better: "lower", Source: srcBuild, Moves: "none (rtrd has no workload)"},
	{Name: "rtr.sync_ms", Unit: "ms", Better: "lower", Source: srcBuild, Moves: "none (rtrd has no workload)"},
	{Name: "rtr.vrps", Unit: "count", Better: "higher", Source: srcBuild, Moves: "exact count"},

	// Delta ladder.
	{Name: "prefix2org.manifest_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "p50_ms on reload-delta"},
	{Name: "prefix2org.build_incremental_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "setup_s on reload-delta"},
	{Name: "delta.noop_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "none (unchanged dir)"},
	{Name: "delta.bgp_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "p50_ms on reload-delta"},
	{Name: "delta.whois_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "p50_ms on reload-delta"},
	{Name: "delta.revert_s", Unit: "s", Better: "lower", Source: srcDelta, Moves: "p50_ms on reload-delta"},
	{Name: "delta.affected", Unit: "count", Better: "lower", Source: srcDelta, Moves: "exact count per cycle"},
	{Name: "delta.reused", Unit: "count", Better: "higher", Source: srcDelta, Moves: "exact count per cycle"},
	{Name: "delta.changed_files", Unit: "count", Better: "lower", Source: srcDelta, Moves: "exact count per cycle"},
	{Name: "delta.vs_full_ratio", Unit: "ratio", Better: "lower", Source: srcDelta, Moves: "cycle time over 3 full builds"},

	// Lookup rung.
	{Name: "netx.parse_addr_ns", Unit: "ns", Better: "lower", Source: srcCold + ", " + srcBulk, Moves: "ops_per_s on http-bulk"},
	{Name: "lpm.lookup_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "ops_per_s on http-bulk and http-cold; no move on http-hot"},
	{Name: "lpm.lookup_ns.1m", Unit: "ns", Better: "lower", Source: srcBulk, Moves: "the Internet-scale rung; no workload"},
	{Name: "lpm.freeze_s.1m", Unit: "s", Better: "lower", Source: srcBulk, Moves: "the Internet-scale rung; no workload"},
	{Name: "prefix2org.lookup_addr_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "loadgen.p50_ms on serve-under-reload (eager mode)"},
	{Name: "prefix2org.lookup_addr_view_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "ops_per_s on http-cold and http-bulk"},
	{Name: "prefix2org.lookup_covering_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "ops_per_s on http-cold"},
	{Name: "prefix2org.cluster_by_id_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "ops_per_s on http-cold"},
	{Name: "prefix2org.lookup_allocs", Unit: "count", Better: "lower", Source: srcCold, Moves: "allocations per warm view lookup"},

	// Serve skeleton.
	{Name: "store.acquire_ns", Unit: "ns", Better: "lower", Source: srcHot, Moves: "ops_per_s on http-hot"},
	{Name: "store.acquire_allocs", Unit: "count", Better: "lower", Source: srcHot, Moves: "ops_per_s on http-hot"},
	{Name: "store.swap_us", Unit: "us", Better: "lower", Source: srcHot, Moves: "loadgen.p99_ms on serve-under-reload"},
	{Name: "httpd.handler_hit_ns", Unit: "ns", Better: "lower", Source: srcHot, Moves: "ops_per_s and p50_ms on http-hot"},
	{Name: "httpd.handler_hit_allocs", Unit: "count", Better: "lower", Source: srcHot, Moves: "ops_per_s on http-hot"},
	{Name: "httpd.handler_miss_ns", Unit: "ns", Better: "lower", Source: srcCold, Moves: "ops_per_s and p50_ms on http-cold"},
	{Name: "httpd.handler_miss_allocs", Unit: "count", Better: "lower", Source: srcCold, Moves: "ops_per_s on http-cold"},
	{Name: "httpd.bulk_line_ns", Unit: "ns", Better: "lower", Source: srcBulk, Moves: "ops_per_s on http-bulk"},
	{Name: "httpd.bulk_allocs_per_line", Unit: "count", Better: "lower", Source: srcBulk, Moves: "ops_per_s on http-bulk"},
	{Name: "httpd.socket_overhead_us", Unit: "us", Better: "lower", Source: srcHot + ", " + srcCold, Moves: "loopback p50 minus in-process handler time"},
	{Name: "httpd.cache_hit_ratio", Unit: "ratio", Better: "higher", Source: "http workloads", Moves: "asserted >= 0.99 on http-hot, <= 0.05 on http-cold"},
	{Name: "httpd.cache_evictions", Unit: "count", Better: "lower", Source: "http workloads", Moves: "0 on http-hot"},
	{Name: "httpd.server_p99_ms", Unit: "ms", Better: "lower", Source: "http workloads", Moves: "server-side view of p99_ms"},
	{Name: "whoisd.answer_ns", Unit: "ns", Better: "lower", Source: srcWhois, Moves: "< 3% of ops_per_s on whois-dial (dial-bound)"},
	{Name: "whoisd.answer_allocs", Unit: "count", Better: "lower", Source: srcWhois, Moves: "claim on the count, not end to end"},
	{Name: "whoisd.tcp_roundtrip_us", Unit: "us", Better: "lower", Source: srcWhois, Moves: "p50_ms on whois-dial minus answer time"},
	{Name: "whoisd.server_p99_ms", Unit: "ms", Better: "lower", Source: srcWhois, Moves: "server-side view of p99_ms"},

	// Reload under load.
	{Name: "store.reload_s", Unit: "s", Better: "lower", Source: srcReload, Moves: "summed /reload wall time; p50_ms on serve-under-reload is its median"},
	{Name: "store.delta_reloads", Unit: "count", Better: "higher", Source: srcReload, Moves: "exact count"},
	{Name: "store.delta_fallbacks", Unit: "count", Better: "lower", Source: srcReload, Moves: "asserted 0"},
	{Name: "store.reloads_noop", Unit: "count", Better: "lower", Source: srcReload, Moves: "exact count"},
	{Name: "httpd.cache_inv_partial", Unit: "count", Better: "higher", Source: srcReload, Moves: "exact count"},
	{Name: "httpd.cache_inv_full", Unit: "count", Better: "lower", Source: srcReload, Moves: "exact count"},
	{Name: "httpd.cache_partial_drops", Unit: "count", Better: "lower", Source: srcReload, Moves: "loadgen.p99_ms on serve-under-reload"},

	// The generator itself.
	{Name: "loadgen.requests", Unit: "count", Better: "higher", Source: srcServe, Moves: "sample count behind p50_ms and p99_ms"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower", Source: srcReload, Moves: "requests sent > 1 ms after due"},
	{Name: "loadgen.p50_ms", Unit: "ms", Better: "lower", Source: srcReload, Moves: "open-loop query latency from due time while reloading"},
	{Name: "loadgen.p99_ms", Unit: "ms", Better: "lower", Source: srcReload, Moves: "its tail: a few stalls per run, does not repeat within 25%, so not gated"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Source: srcServe, Moves: "traced vs untraced ops_per_s in one run"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Source: srcAll, Moves: "spans recorded"},
}

func hasWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// benchmarkFile is the exact shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []boundedEntry `json:"end_to_end"`
	PerLayer   []layerEntry   `json:"per_layer"`
}

type boundedEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	return f
}

func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkJSON())
}

// printList is -list: every workload and metric with unit, direction
// and bound, straight from the catalogue.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads (%d), each measured for %d s:\n", len(workloads), runSeconds)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-20s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintf(w, "\nend-to-end metrics (%d), reported by every workload with tracing off:\n", len(endToEnd))
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %-6s %-7s may worsen by %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintf(w, "\nper-layer metrics (%d), reported by the traced run (0 where the workload does not touch the layer):\n", len(perLayer))
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %-6s %-7s from %s; moves: %s\n", m.Name, m.Unit, m.Better, m.Source, m.Moves)
	}
}
