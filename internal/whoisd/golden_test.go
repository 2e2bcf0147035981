package whoisd

import (
	"context"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon/daemontest"
	"github.com/prefix2org/prefix2org/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current answers")

// goldenQueries names one query per branch of the answer ladder, picked
// from the shared synthetic dataset (deterministic, so the rendered
// answers are too).
func goldenQueries(t *testing.T, ds *prefix2org.Dataset) [][2]string {
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
		{"addr match", rec.Prefix.Addr().String()},
		{"addr no-match", "192.0.2.1"},
		{"prefix exact", rec.Prefix.String()},
		{"prefix covering", covering},
		{"prefix no-match", "192.0.2.0/24"},
		// The IPv4-mapped IPv6 spellings (what a dual-stack socket
		// logs) of the addr match / no-match and covering rows above.
		{"addr 4-in-6 match", "::ffff:" + rec.Prefix.Addr().String()},
		{"addr 4-in-6 no-match", "::ffff:192.0.2.1"},
		{"prefix 4-in-6 covering", "::ffff:" + strings.Replace(covering, "/30", "/126", 1)},
		{"org by owner", rec.DirectOwner},
		{"org by id", rec.FinalCluster},
		{"org no-match", "Totally Unknown Org"},
		{"bad addr", "300.1.2.3"}, // no address form: falls through to an org query
		{"bad prefix", "300.1.2.3/8"},
		{"empty", ""},
	}
}

// TestGoldenWireAnswers pins every byte whoisd answers with, one row
// per branch of the query ladder, against an eager and a view-backed
// dataset: testdata/wire.golden was captured before the front ends
// moved onto the shared resolver and must not move.
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

	queries := goldenQueries(t, ds)
	render := func(ds *prefix2org.Dataset) string {
		srv := NewStatic(ds)
		var b strings.Builder
		for _, q := range queries {
			b.WriteString("=== " + q[0] + ": " + q[1] + "\n")
			b.WriteString(srv.Answer(q[1]))
		}
		b.WriteString("=== no dataset\n")
		b.WriteString(New(store.NewPending("golden")).Answer("192.0.2.1"))
		return b.String()
	}
	eager := render(ds)
	if *updateGolden {
		if err := os.WriteFile("testdata/wire.golden", []byte(eager), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string]string{"eager": eager, "view": render(view)} {
		t.Run(name, func(t *testing.T) { daemontest.Golden(t, "testdata/wire.golden", got) })
	}
}

// TestOrgQueryByClusterID is the API.md contract whoisd used to miss:
// an organization query matches the final-cluster ID first, then any
// exact owner name, and both spell the same cluster block.
func TestOrgQueryByClusterID(t *testing.T) {
	ds := dataset(t)
	srv := NewStatic(ds)
	rec := &ds.Records[0]
	byName, byID := srv.Answer(rec.DirectOwner), srv.Answer(rec.FinalCluster)
	if !strings.Contains(byID, "cluster:      "+rec.FinalCluster+"\r\n") {
		t.Fatalf("cluster-ID query did not answer with the cluster block:\n%s", byID)
	}
	if byID != byName {
		t.Errorf("cluster-ID and owner-name queries differ:\n--- by ID\n%s--- by name\n%s", byID, byName)
	}
}
