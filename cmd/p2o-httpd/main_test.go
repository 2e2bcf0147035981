package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
	"github.com/prefix2org/prefix2org/internal/httpd"
)

// TestBootAndAnswer boots the daemon exactly as main would (ephemeral
// ports) and checks the query listener answers every query form from
// snapshot 1, the admin /reload swaps the snapshot and the response
// cache follows (answers carry version 2), the set of metric names on
// /metrics is the one captured before the daemons shared a skeleton,
// and every query is counted once. Each query is sent twice, so the
// second answer of a single query is a cache hit.
// What the skeleton does for every daemon alike — flag validation, log
// levels, snapshot mode, readiness — is tested once, in internal/daemon.
func TestBootAndAnswer(t *testing.T) {
	_, dir := daemontest.World(t)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &ds.Records[0]
	cfg := httpd.DefaultConfig()
	a := daemontest.Boot(context.Background(), t, spec(&cfg), daemon.Flags{DataDir: dir})

	// The counter families every query moves, and their totals before
	// any query: the registry is process-wide, so -count=N runs see the
	// earlier runs' queries.
	families := []string{"httpd_queries_total", "httpd_query_seconds_count"}
	base := map[string]float64{}
	for _, name := range families {
		base[name] = daemontest.MetricSum(t, a, name)
	}
	sent := 0

	c := http.Client{Timeout: 10 * time.Second}
	// get sends a query twice, a cache miss then a hit, and checks the
	// status and the snapshot version of both answers (nil: an error
	// envelope, which names no snapshot).
	get := func(path string, wantStatus int, wantVersion any) {
		t.Helper()
		for try := range 2 {
			sent++
			resp, err := c.Get("http://" + a.Addr + path)
			if err != nil {
				t.Fatal(err)
			}
			var body map[string]any
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("GET %s: body is not JSON: %v", path, err)
			}
			if resp.StatusCode != wantStatus {
				t.Fatalf("GET %s = %d, want %d: %v", path, resp.StatusCode, wantStatus, body)
			}
			if got := body["snapshot_version"]; got != wantVersion {
				t.Fatalf("GET %s (send %d of 2): snapshot_version = %v, want %v", path, try+1, got, wantVersion)
			}
		}
	}
	addrPath := "/v1/addr/" + rec.Prefix.Addr().String()
	for _, path := range []string{addrPath, "/v1/prefix/" + rec.Prefix.String(), "/v1/org/" + url.PathEscape(rec.DirectOwner)} {
		get(path, http.StatusOK, float64(1))
	}
	get("/v1/addr/not-an-ip", http.StatusBadRequest, nil)

	// Bulk round-trip through the running daemon.
	for range 2 {
		sent++
		resp, err := c.Post("http://"+a.Addr+"/v1/bulk", "application/x-ndjson", strings.NewReader("1.2.3.4\nnot-an-ip\n"))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if n := strings.Count(strings.TrimSpace(string(raw)), "\n") + 1; n != 2 {
			t.Fatalf("bulk returned %d lines, want 2:\n%s", n, raw)
		}
		if resp.Header.Get("X-P2O-Snapshot") != "1" {
			t.Fatalf("X-P2O-Snapshot = %q", resp.Header.Get("X-P2O-Snapshot"))
		}
	}

	daemontest.Golden(t, "testdata/metrics.golden", daemontest.MetricNames(t, a))

	if status, body := daemontest.Get(t, a, "/reload"); status != 200 {
		t.Fatalf("/reload = %d: %s", status, body)
	}
	get(addrPath, http.StatusOK, float64(2))

	// A request is counted after its body is written, so the client can
	// read the answer before the count lands: poll until a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range families {
		for {
			got := daemontest.MetricSum(t, a, name) - base[name]
			if got == float64(sent) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s counted %v queries, want %d (each counted once)", name, got, sent)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestFlagSet pins the daemon's flags — names and defaults — to the
// list captured before the shared flags moved into internal/daemon.
func TestFlagSet(t *testing.T) {
	// protocolFlags registers on flag.CommandLine, as main has it.
	saved := flag.CommandLine
	defer func() { flag.CommandLine = saved }()
	flag.CommandLine = flag.NewFlagSet("p2o-httpd", flag.ContinueOnError)
	daemon.RegisterFlags(flag.CommandLine, spec(protocolFlags()))
	daemontest.Golden(t, "testdata/flags.golden", daemontest.FlagSet(flag.CommandLine))
}

// TestSoak drives delta reloads over a directory flipped between two
// states under query load, and checks the daemon holds no more after
// the last reload than after the fifth (daemontest.Soak).
func TestSoak(t *testing.T) {
	dir, flip := daemontest.EvolvingWorld(t)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/addr/" + ds.Records[0].Prefix.Addr().String()
	c := http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer c.CloseIdleConnections()
	ask := func(addr string) error {
		resp, err := c.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("GET %s = %d: %v", path, resp.StatusCode, body)
		}
		return nil
	}
	cfg := httpd.DefaultConfig()
	daemontest.Soak(context.Background(), t, spec(&cfg), daemon.Flags{DataDir: dir, ReloadDelta: true}, flip, ask)
}
