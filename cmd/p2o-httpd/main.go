// Command p2o-httpd serves a Prefix2Org dataset over HTTP/JSON — the
// fleet-facing query front end next to p2o-whoisd (RFC 3912). API.md is
// the complete wire reference.
//
// Usage:
//
//	p2o-httpd -data DIR [-listen ADDR] [-metrics-listen ADDR] [options]
//	p2o-httpd -snapshot FILE [-snapshot-mmap] [-listen ADDR]
//
// Then:
//
//	curl http://127.0.0.1:8080/v1/addr/63.80.52.1
//	curl http://127.0.0.1:8080/v1/prefix/63.80.52.0/24
//	printf '1.2.3.4\n5.6.7.8\n' | curl --data-binary @- http://127.0.0.1:8080/v1/bulk
//
// The flags, the snapshot modes, hot reload (SIGHUP, -reload-interval,
// /reload, -reload-delta) and the admin listener are the ones every
// daemon shares; package internal/daemon documents them. What is this
// daemon's own: a request — including a long-running bulk stream —
// keeps the snapshot it pinned across swaps (and, under -snapshot-mmap,
// keeps its mapping alive); every swap invalidates the response cache,
// except that a -reload-delta swap invalidates only the cached
// responses its changeset reaches and a no-op reload leaves the cache
// untouched; and the listener is up before the first build finishes,
// answering 503 not_ready until then.
package main

import (
	"context"
	"flag"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/httpd"
	"github.com/prefix2org/prefix2org/internal/store"
)

// protocolFlags registers the flags only this daemon has.
func protocolFlags() *httpd.Config {
	cfg := httpd.DefaultConfig()
	flag.IntVar(&cfg.BulkMaxLines, "bulk-max-lines", cfg.BulkMaxLines, "maximum input lines per /v1/bulk request; the stream ends with a too_many_lines error line when exceeded")
	flag.IntVar(&cfg.BulkFlushEvery, "bulk-flush-every", cfg.BulkFlushEvery, "flush the bulk response stream every N result lines")
	flag.IntVar(&cfg.CacheSize, "cache-size", cfg.CacheSize, "hot-response cache entries (invalidated on every snapshot swap); 0 disables caching")
	return &cfg
}

// spec describes p2o-httpd to the shared daemon skeleton; cfg is read
// when the server is constructed, after flag parsing.
func spec(cfg *httpd.Config) daemon.Spec {
	return daemon.Spec{
		Name:      "p2o-httpd",
		Listen:    "127.0.0.1:8080",
		Telemetry: httpd.Telemetry(),
		Dataset:   func(st *store.Store) daemon.FrontEnd { return httpd.New(st, *cfg) },
	}
}

func main() { daemon.Main(context.Background(), spec(protocolFlags())) }
