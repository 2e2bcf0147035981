// Package httpd serves a Prefix2Org dataset over HTTP/JSON — the
// fleet-facing front end next to the RFC 3912 whoisd. Four endpoints
// cover the query surface (API.md is the wire reference):
//
//	GET  /v1/addr/{ip}      ownership record covering one address
//	GET  /v1/prefix/{cidr}  exact record, falling back to the covering one
//	GET  /v1/org/{id}       organization cluster by ID or WHOIS name
//	POST /v1/bulk           streaming NDJSON: one address per line in,
//	                        one result line out, same order
//
// The server owns no dataset state. Every request — including a bulk
// request of a million lines — loads the store's current snapshot
// exactly once and answers entirely from it, so a concurrent snapshot
// swap (hot reload) never blocks a request and never shows one request
// a mix of two dataset versions. The snapshot version that answered is
// echoed on every response (the snapshot_version field, and the
// X-P2O-Snapshot header on bulk streams).
//
// The bulk path is built for amortization: the snapshot pin, the output
// buffer, and the lookup scratch space are per-request, reused across
// every line, and the per-line fast path (classify line → parse address
// from bytes → frozen-index lookup → hand-rolled JSON append) performs
// zero heap allocations — pinned by this package's alloc guard. Output
// is flushed every Config.BulkFlushEvery lines, so a slow client
// backpressures the stream through the TCP send buffer instead of
// buffering the whole response. A client that stalls — sends no body
// bytes, or reads no response bytes, for 30 s — has its stream ended
// and its snapshot pin dropped, so it cannot hold a retired snapshot
// alive behind a reloading daemon.
//
// Hot single-query responses are cached: a sharded response cache keyed
// by endpoint and query stores fully rendered bodies and is bounded by
// Config.CacheSize. Each entry carries the snapshot version it was
// rendered from and is served only to a request that pinned that
// version; there is no swap hook — after a reload the older entries
// miss and are overwritten by the refill or FIFO-evicted.
//
// Every query request — cache hit or miss, not-ready or bulk — is
// counted once, when the package's obs.QueryTelemetry finishes it:
// httpd_queries_total by type (a bulk request is type "bulk"),
// httpd_no_match_total, rolling p50/p90/p99/p999 latency gauges,
// httpd_slo_violations_total, and — for sampled or slow queries — a
// QuerySpan the server passes through the parse, lookup, encode, and
// write phases, landing in the /debug/queries ring with the snapshot
// version that answered. A request with the wrong method or an unknown
// path is not a query and is not counted.
//
// # Goroutine safety
//
// A Server is safe for any number of concurrent requests and concurrent
// snapshot swaps. Handlers share no mutable state beyond the response
// cache (internally sharded and locked) and the telemetry instance
// (lock-free or internally synchronized throughout). Start may be
// called once; Close stops the listener and closes active connections.
// The bulk scratch buffers (scanner, writer, output line) are
// allocated per request and never shared across goroutines.
package httpd
