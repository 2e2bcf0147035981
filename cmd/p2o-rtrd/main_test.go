package main

import (
	"context"
	"flag"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
	"github.com/prefix2org/prefix2org/internal/rtr"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// TestBootAndAnswer boots the daemon as main would and checks a router
// can sync (at serial 1: publishing the snapshot the server was built
// from bumps nothing), then reloads via the admin endpoint and checks
// the serial bumps so routers resynchronize, and that the set of metric
// names on /metrics is the one captured before the daemons shared a
// skeleton. What the skeleton does for every daemon alike is tested
// once, in internal/daemon.
func TestBootAndAnswer(t *testing.T) {
	w, dir := daemontest.World(t)
	a := daemontest.Boot(context.Background(), t, spec(), daemon.Flags{DataDir: dir})

	rc := &rtr.Client{Addr: a.Addr, Timeout: 5 * time.Second}
	vrps, serial1, err := rc.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrps) == 0 {
		t.Fatal("synced zero VRPs from a world with RPKI adopters")
	}
	if serial1 != 1 {
		t.Errorf("serial after boot = %d, want 1", serial1)
	}
	if ok, err := rc.CheckSerial(serial1); err != nil || !ok {
		t.Fatalf("CheckSerial(current) = %v, %v", ok, err)
	}
	daemontest.Golden(t, "testdata/metrics.golden", daemontest.MetricNames(t, a))

	// New adopters change the ROA set; /reload must publish it and bump
	// the serial.
	w2, err := w.Evolve(synth.EvolveOptions{Seed: 5, NewAdopters: 2, MonthsLater: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if status, body := daemontest.Get(t, a, "/reload"); status != 200 {
		t.Fatalf("GET /reload = %d: %s", status, body)
	}
	if ok, err := rc.CheckSerial(serial1); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("stale serial still current after /reload")
	}
	_, serial2, err := rc.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if serial2 == serial1 {
		t.Errorf("serial did not bump across /reload (still %d)", serial1)
	}
}

// TestFlagSet pins the daemon's flags — names and defaults — to the
// list captured before the shared flags moved into internal/daemon.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("p2o-rtrd", flag.ContinueOnError)
	daemon.RegisterFlags(fs, spec())
	daemontest.Golden(t, "testdata/flags.golden", daemontest.FlagSet(fs))
}
