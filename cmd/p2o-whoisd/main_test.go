package main

import (
	"context"
	"flag"
	"io"
	"net"
	"strings"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
)

// TestBootAndAnswer boots the daemon exactly as main would (ephemeral
// ports), checks the WHOIS listener answers every query form over TCP,
// and checks the set of metric names on /metrics is the one captured
// before the daemons shared a skeleton. What the skeleton does for
// every daemon alike — flag validation, log levels, snapshot mode,
// /reload, readiness — is tested once, in internal/daemon.
func TestBootAndAnswer(t *testing.T) {
	_, dir := daemontest.World(t)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &ds.Records[0]
	a := daemontest.Boot(context.Background(), t, spec(), daemon.Flags{DataDir: dir})

	for q, want := range map[string]string{
		rec.Prefix.Addr().String(): "direct-owner:  " + rec.DirectOwner,
		rec.Prefix.String():        "final-cluster: " + rec.FinalCluster,
		rec.DirectOwner:            "cluster:      " + rec.FinalCluster,
		"300.1.2.3/8":              "% error: bad prefix",
	} {
		conn, err := net.Dial("tcp", a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(q + "\r\n")); err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(out), "% Prefix2Org whois") || !strings.Contains(string(out), want) {
			t.Errorf("query %q: answer lacks %q:\n%s", q, want, out)
		}
	}
	daemontest.Golden(t, "testdata/metrics.golden", daemontest.MetricNames(t, a))
}

// TestFlagSet pins the daemon's flags — names and defaults — to the
// list captured before the shared flags moved into internal/daemon.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("p2o-whoisd", flag.ContinueOnError)
	daemon.RegisterFlags(fs, spec())
	daemontest.Golden(t, "testdata/flags.golden", daemontest.FlagSet(fs))
}
