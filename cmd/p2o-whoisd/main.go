// Command p2o-whoisd serves a Prefix2Org dataset over the WHOIS protocol
// (RFC 3912): query a prefix, an IP address, or an organization by name
// or final-cluster ID.
//
// Usage:
//
//	p2o-whoisd -data DIR [-listen ADDR] [-metrics-listen ADDR] [-reload-interval D] [-reload-delta] [-log-level LEVEL] [-log-json]
//	p2o-whoisd -snapshot FILE [-snapshot-mmap] [-listen ADDR]
//
// Then:  whois -h 127.0.0.1 -p 4343 63.80.52.0/24
//
// The flags, the snapshot modes, hot reload (SIGHUP, -reload-interval,
// /reload, -reload-delta) and the admin listener are the ones every
// daemon shares; package internal/daemon documents them. The listener
// is up before the first build finishes: until then queries are answered
// "% error: no dataset loaded".
package main

import (
	"context"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/whoisd"
)

// spec describes p2o-whoisd to the shared daemon skeleton.
func spec() daemon.Spec {
	return daemon.Spec{
		Name:      "p2o-whoisd",
		Listen:    "127.0.0.1:4343",
		Telemetry: whoisd.Telemetry(),
		Dataset:   func(st *store.Store) daemon.FrontEnd { return whoisd.New(st) },
	}
}

func main() { daemon.Main(context.Background(), spec()) }
