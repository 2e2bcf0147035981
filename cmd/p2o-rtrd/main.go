// Command p2o-rtrd serves a data directory's RPKI ROA set to routers over
// the RPKI-to-Router protocol (RFC 8210) — the operational counterpart of
// the §8.2 case study: what a router validating against this world's ROAs
// would load.
//
// Usage:
//
//	p2o-rtrd -data DIR [-listen ADDR] [-metrics-listen ADDR] [-reload-interval D] [-reload-delta] [-log-level LEVEL] [-log-json]
//
// The flags, hot reload (SIGHUP, -reload-interval, /reload) and the
// admin listener are the ones every daemon shares; package
// internal/daemon documents them. What is this daemon's own: a reload
// bumps the RTR serial, so routers polling with Serial Queries
// resynchronize, and a failed reload leaves the current VRP set serving.
// -reload-delta hashes the rpki/ inputs on each reload and skips the
// reload outright when they are unchanged — the serial stays put and
// polling routers are not forced through a resync for nothing
// (rtr_serial_skips_total counts swaps whose changeset proved the VRP
// set untouched).
//
// Unlike p2o-whoisd and p2o-httpd there is no -snapshot/-snapshot-mmap
// mode: serialized dataset snapshots carry the prefix-to-organization
// records but not the raw RPKI repository this daemon replays, so it
// always builds from -data. And there is no not-ready answer in RTR:
// the listener comes up only once the first repository is loaded.
package main

import (
	"context"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/rtr"
	"github.com/prefix2org/prefix2org/internal/store"
)

// spec describes p2o-rtrd to the shared daemon skeleton.
func spec() daemon.Spec {
	return daemon.Spec{
		Name:      "p2o-rtrd",
		Listen:    "127.0.0.1:8282",
		Telemetry: rtr.Telemetry(),
		Repo: func(st *store.Store, first *store.Snapshot) daemon.FrontEnd {
			srv := rtr.NewServer(first.Repo)
			srv.Track(st)
			return srv
		},
	}
}

func main() { daemon.Main(context.Background(), spec()) }
