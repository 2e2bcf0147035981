package main

import (
	"context"
	"encoding/json"
	"flag"
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
// cache follows (answers carry version 2), and the set of metric names
// on /metrics is the one captured before the daemons shared a skeleton.
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

	c := http.Client{Timeout: 10 * time.Second}
	version := func(path string, wantStatus int) any {
		t.Helper()
		resp, err := c.Get("http://" + a.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: body is not JSON: %v", path, err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d: %v", path, resp.StatusCode, wantStatus, body)
		}
		return body["snapshot_version"]
	}
	addrPath := "/v1/addr/" + rec.Prefix.Addr().String()
	for _, path := range []string{addrPath, "/v1/prefix/" + rec.Prefix.String(), "/v1/org/" + url.PathEscape(rec.DirectOwner)} {
		if got := version(path, http.StatusOK); got != float64(1) {
			t.Errorf("GET %s: snapshot_version = %v, want 1", path, got)
		}
	}
	version("/v1/addr/not-an-ip", http.StatusBadRequest)

	// Bulk round-trip through the running daemon.
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

	daemontest.Golden(t, "testdata/metrics.golden", daemontest.MetricNames(t, a))

	if status, body := daemontest.Get(t, a, "/reload"); status != 200 {
		t.Fatalf("/reload = %d: %s", status, body)
	}
	if got := version(addrPath, http.StatusOK); got != float64(2) {
		t.Fatalf("post-reload snapshot_version = %v, want 2 (cache not invalidated?)", got)
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
