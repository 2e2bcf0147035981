package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
)

// TestBootAndAnswer boots the daemon exactly as main would (ephemeral
// ports), checks the WHOIS listener answers every query form over TCP,
// checks the set of metric names on /metrics is the one captured
// before the daemons shared a skeleton, and checks every query — each
// sent twice, plus one overlong line — is counted once. What the skeleton does for
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
	// The counter families every query moves, and their totals before
	// any query: the registry is process-wide, so -count=N runs see the
	// earlier runs' queries.
	families := []string{"whoisd_queries_total", "whoisd_query_seconds_count"}
	base := map[string]float64{}
	for _, name := range families {
		base[name] = daemontest.MetricSum(t, a, name)
	}
	sent := 0
	send := func(q []byte) ([]byte, error) {
		sent++
		conn, err := net.Dial("tcp", a.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(q); err != nil {
			t.Fatal(err)
		}
		return io.ReadAll(conn)
	}

	for q, want := range map[string]string{
		rec.Prefix.Addr().String(): "direct-owner:  " + rec.DirectOwner,
		rec.Prefix.String():        "final-cluster: " + rec.FinalCluster,
		rec.DirectOwner:            "cluster:      " + rec.FinalCluster,
		"300.1.2.3/8":              "% error: bad prefix",
	} {
		for range 2 {
			out, err := send([]byte(q + "\r\n"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(out), "% Prefix2Org whois") || !strings.Contains(string(out), want) {
				t.Errorf("query %q: answer lacks %q:\n%s", q, want, out)
			}
		}
	}
	// An overlong line with no newline: the server answers after 4 KiB
	// and hangs up on the unread rest, which may reset the connection,
	// so the read error is expected.
	_, _ = send(bytes.Repeat([]byte("a"), 8<<10))

	// The server counts a query before it closes the connection, so
	// every count has landed once the client reads EOF.
	for _, name := range families {
		if got := daemontest.MetricSum(t, a, name) - base[name]; got != float64(sent) {
			t.Errorf("%s counted %v queries, want %d (each counted once)", name, got, sent)
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

// TestSoak drives each way the daemon reloads — a full build, a delta
// over a directory flipped between two states, and a re-opened mmapped
// snapshot — through many reloads under query load, and checks it holds
// no more after the last reload than after the fifth (daemontest.Soak).
func TestSoak(t *testing.T) {
	dir, flip := daemontest.EvolvingWorld(t)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(t.TempDir(), "snap.p2o")
	if err := ds.SaveFile(snapshot); err != nil {
		t.Fatal(err)
	}
	q := ds.Records[0].Prefix.Addr().String() + "\r\n"
	ask := func(addr string) error {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return err
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, q); err != nil {
			return err
		}
		out, err := io.ReadAll(conn)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(string(out), "% Prefix2Org whois") || strings.Contains(string(out), "% error") {
			return fmt.Errorf("answer %q", out)
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		f    daemon.Flags
		flip func()
	}{
		{"data", daemon.Flags{DataDir: dir}, nil},
		{"data-reload-delta", daemon.Flags{DataDir: dir, ReloadDelta: true}, flip},
		{"snapshot-mmap", daemon.Flags{Snapshot: snapshot, SnapshotMmap: true}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { daemontest.Soak(context.Background(), t, spec(), tc.f, tc.flip, ask) })
	}
}
