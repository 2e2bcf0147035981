package httpd

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
	"github.com/prefix2org/prefix2org/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current answers")

// goldenPaths names one request per branch of the single-query
// handlers, picked from the shared synthetic dataset (deterministic, so
// the rendered envelopes are too).
func goldenPaths(t *testing.T, ds *prefix2org.Dataset) [][2]string {
	t.Helper()
	rec := &ds.Records[0]
	covering := ""
	for i := range ds.Records {
		p := ds.Records[i].Prefix
		if !p.Addr().Is4() || p.Bits() > 24 {
			continue
		}
		sub := p.Addr().String() + "/30"
		if _, exact := ds.Lookup(netip.MustParsePrefix(sub)); !exact {
			covering = sub
			break
		}
	}
	if covering == "" {
		t.Fatal("no record leaves room for a covering query")
	}
	return [][2]string{
		{"addr match", "/v1/addr/" + rec.Prefix.Addr().String()},
		{"addr no-match", "/v1/addr/192.0.2.1"},
		{"prefix exact", "/v1/prefix/" + rec.Prefix.String()},
		{"prefix covering", "/v1/prefix/" + covering},
		{"prefix no-match", "/v1/prefix/192.0.2.0/24"},
		// The IPv4-mapped IPv6 spellings (what a dual-stack socket
		// logs) of the addr match / no-match and covering rows above.
		{"addr 4-in-6 match", "/v1/addr/::ffff:" + rec.Prefix.Addr().String()},
		{"addr 4-in-6 no-match", "/v1/addr/::ffff:192.0.2.1"},
		{"prefix 4-in-6 covering", "/v1/prefix/::ffff:" + strings.Replace(covering, "/30", "/126", 1)},
		{"org by owner", "/v1/org/" + url.PathEscape(rec.DirectOwner)},
		{"org by id", "/v1/org/" + rec.FinalCluster},
		{"org no-match", "/v1/org/Totally%20Unknown%20Org"},
		{"bad addr", "/v1/addr/300.1.2.3"},
		{"bad prefix", "/v1/prefix/300.1.2.3/8"},
		{"empty org", "/v1/org/"},
		{"empty addr", "/v1/addr/"},
	}
}

// TestGoldenWireAnswers pins the status and every body byte of the
// single-query endpoints, one row per branch of the query ladder,
// against an eager and a view-backed dataset: testdata/wire.golden was
// captured before the front ends moved onto the shared resolver and
// must not move.
func TestGoldenWireAnswers(t *testing.T) {
	ds := dataset(t)
	path := filepath.Join(t.TempDir(), "snap.p2o")
	if err := ds.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	view, err := prefix2org.OpenSnapshotFile(context.Background(), path, prefix2org.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if !view.Lazy() {
		t.Fatal("v2 snapshot did not open view-backed")
	}

	paths := goldenPaths(t, ds)
	render := func(h http.Handler, paths [][2]string) string {
		var b strings.Builder
		for _, p := range paths {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, p[1], nil))
			fmt.Fprintf(&b, "=== %s: GET %s -> %d\n%s", p[0], p[1], rr.Code, rr.Body.String())
		}
		return b.String()
	}
	notReady := render(New(store.NewPending("golden"), DefaultConfig()).Handler(),
		[][2]string{{"no dataset", "/v1/addr/192.0.2.1"}})
	eager := render(NewStatic(ds).Handler(), paths) + notReady
	if *updateGolden {
		if err := os.WriteFile("testdata/wire.golden", []byte(eager), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string]string{"eager": eager, "view": render(NewStatic(view).Handler(), paths) + notReady} {
		t.Run(name, func(t *testing.T) { daemontest.Golden(t, "testdata/wire.golden", got) })
	}
}
