package whoisd

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

var (
	dsOnce sync.Once
	dsVal  *prefix2org.Dataset
	dsErr  error
)

// buildSharedDataset populates dsVal/dsErr once; tests reach it through
// dataset(t), benchmarks through dsWorld().
func buildSharedDataset() {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		dsErr = err
		return
	}
	dir, err := os.MkdirTemp("", "p2o-whoisd-test")
	if err != nil {
		dsErr = err
		return
	}
	// The Dataset is not incremental: nothing reads dir after the build.
	defer os.RemoveAll(dir)
	if err := w.WriteDir(dir); err != nil {
		dsErr = err
		return
	}
	dsVal, dsErr = prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
}

func dataset(t *testing.T) *prefix2org.Dataset {
	t.Helper()
	dsOnce.Do(buildSharedDataset)
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestAnswerPrefixQuery(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	rec := &ds.Records[0]
	out := srv.Answer(rec.Prefix.String())
	for _, want := range []string{"direct-owner:", rec.DirectOwner, "final-cluster:", rec.FinalCluster} {
		if !strings.Contains(out, want) {
			t.Errorf("answer missing %q:\n%s", want, out)
		}
	}
}

func TestAnswerAddressQuery(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	rec := &ds.Records[0]
	out := srv.Answer(rec.Prefix.Addr().String())
	if !strings.Contains(out, rec.DirectOwner) {
		t.Errorf("address query missed owner:\n%s", out)
	}
}

func TestAnswerCoveringFallback(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	// Query a /30 inside the first record's prefix: not announced, so the
	// covering announcement answers.
	rec := &ds.Records[0]
	sub := rec.Prefix.Addr().String() + "/30"
	if rec.Prefix.Bits() >= 30 {
		t.Skip("first record too specific for this test")
	}
	out := srv.Answer(sub)
	if !strings.Contains(out, "covering") || !strings.Contains(out, rec.DirectOwner) {
		t.Errorf("covering fallback failed:\n%s", out)
	}
}

func TestAnswerOrgQuery(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	owner := ds.Records[0].DirectOwner
	out := srv.Answer(owner)
	if !strings.Contains(out, "cluster:") || !strings.Contains(out, "prefix:") {
		t.Errorf("org query failed:\n%s", out)
	}
}

func TestAnswerErrors(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	if out := srv.Answer(""); !strings.Contains(out, "error") {
		t.Errorf("empty query: %q", out)
	}
	if out := srv.Answer("300.1.2.3/8"); !strings.Contains(out, "error") {
		t.Errorf("bad prefix: %q", out)
	}
	if out := srv.Answer("Totally Unknown Org"); !strings.Contains(out, "no match") {
		t.Errorf("unknown org: %q", out)
	}
	if out := srv.Answer("192.0.2.0/24"); !strings.Contains(out, "no match") {
		t.Errorf("unrouted prefix: %q", out)
	}
}

// TestOverlongQueryCutOff: a client that streams 1 MiB with no newline
// is answered "query too long" once the line outgrows the read buffer,
// finished like any other query — counted as a bad one and timed — and
// disconnected, not buffered until the deadline.
func TestOverlongQueryCutOff(t *testing.T) {
	srv := NewStatic(dataset(t))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const badKey = `whoisd_queries_total{type="bad"}`
	badBefore, latBefore := obs.Default().Snapshot().Counters[badKey], mLatency.Count()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	// The server stops reading after its buffer fills, so the write
	// blocks and then fails when the server hangs up; only the answer
	// matters here.
	go conn.Write(bytes.Repeat([]byte("a"), 1<<20))
	// The server closes with unread bytes queued, which resets the
	// connection; the answer arrives before the reset.
	body, _ := io.ReadAll(conn)
	want := "% Prefix2Org whois (synthetic dataset)\r\n% error: query too long\r\n"
	if string(body) != want {
		t.Errorf("answer = %q, want %q", body, want)
	}
	// The server finishes the query before it closes the connection,
	// so the counts have landed once the client reads EOF.
	if d := obs.Default().Snapshot().Counters[badKey] - badBefore; d != 1 {
		t.Errorf("bad queries counted %d, want 1", d)
	}
	if d := mLatency.Count() - latBefore; d != 1 {
		t.Errorf("latency histogram moved by %d, want 1", d)
	}
}

func TestServeOverTCP(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Use the whois.Client (RFC 3912) against it.
	c := &whois.Client{Addr: addr, Timeout: 5 * time.Second}
	body, err := c.Query(context.Background(), ds.Records[0].Prefix.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, ds.Records[0].DirectOwner) {
		t.Errorf("TCP query body:\n%s", body)
	}
	// Concurrent clients.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &ds.Records[i%len(ds.Records)]
			body, err := c.Query(context.Background(), rec.Prefix.String())
			if err != nil {
				errs <- err
				return
			}
			if !strings.Contains(body, rec.DirectOwner) {
				errs <- net.ErrClosed
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
