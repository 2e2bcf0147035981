package prefix2org

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

func writeManifestFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"whois/ripe.db":     "inetnum: 10.0.0.0/8\n",
		"whois/arin.db":     "NetRange: 20.0.0.0/8\n",
		"bgp/rib.mrt":       "\x00\x01\x02",
		"rpki/snapshot":     "{}\n",
		"as2org/data.jsonl": "{\"type\":\"ASN\"}\n",
		"truth/gt.json":     "ignored: not a pipeline input\n",
		"notes.txt":         "ignored: top-level file\n",
	}
	for p, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestManifestDeterminism(t *testing.T) {
	dir := writeManifestFixture(t)
	m1, err := BuildManifest(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildManifest(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) {
		t.Fatal("two BuildManifest runs over the same dir differ")
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatal("encodings differ across reruns")
	}
	want := []string{"as2org/data.jsonl", "bgp/rib.mrt", "rpki/snapshot", "whois/arin.db", "whois/ripe.db"}
	if len(m1.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(m1.Entries), len(want))
	}
	for i, e := range m1.Entries {
		if e.Path != want[i] {
			t.Fatalf("entry %d: got %q, want %q", i, e.Path, want[i])
		}
	}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	dir := writeManifestFixture(t)
	m, err := BuildManifest(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	enc := m.Encode()
	back, err := ParseManifest(enc)
	if err != nil {
		t.Fatalf("ParseManifest of own encoding: %v", err)
	}
	if !m.Equal(back) {
		t.Fatal("round trip lost entries")
	}
	if !bytes.Equal(enc, back.Encode()) {
		t.Fatal("re-encoding differs")
	}
}

func TestManifestDiff(t *testing.T) {
	dir := writeManifestFixture(t)
	ctx := context.Background()
	m1, err := BuildManifest(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := m1.Diff(m1); len(d) != 0 {
		t.Fatalf("self-diff not empty: %v", d)
	}
	// Change one file, add one, remove one.
	if err := os.WriteFile(filepath.Join(dir, "whois", "ripe.db"), []byte("inetnum: 10.0.0.0/9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "whois", "apnic.db"), []byte("new\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "bgp", "rib.mrt")); err != nil {
		t.Fatal(err)
	}
	m2, err := BuildManifest(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Diff(m1)
	want := []string{"bgp/rib.mrt", "whois/apnic.db", "whois/ripe.db"}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	// Diff against nil reports every file.
	if d := m2.Diff(nil); len(d) != len(m2.Entries) {
		t.Fatalf("diff vs nil = %d paths, want %d", len(d), len(m2.Entries))
	}
	// Filter narrows by prefix.
	if f := m2.Filter("whois/"); len(f.Entries) != 3 {
		t.Fatalf("Filter(whois/) = %d entries, want 3", len(f.Entries))
	}
}

func TestManifestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"p2o-manifest v2\n",
		"p2o-manifest v1",             // missing trailing newline
		"p2o-manifest v1\ngarbage\n",  // malformed line
		"p2o-manifest v1\nzz 1 a/b\n", // bad hash
		"p2o-manifest v1\n" + validManifestLine("b") + validManifestLine("a"), // unsorted
		"p2o-manifest v1\n" + validManifestLine("a") + validManifestLine("a"), // duplicate
	}
	for _, s := range bad {
		if _, err := ParseManifest([]byte(s)); err == nil {
			t.Errorf("ParseManifest accepted %q", s)
		}
	}
}

func validManifestLine(path string) string {
	return "0000000000000000000000000000000000000000000000000000000000000000 0 " + path + "\n"
}

// FuzzManifest checks the codec is self-stable: any input that parses
// must re-encode to bytes that parse to an equal manifest, and the
// second encoding must equal the first (canonical form).
func FuzzManifest(f *testing.F) {
	f.Add([]byte("p2o-manifest v1\n"))
	f.Add([]byte("p2o-manifest v1\n" + validManifestLine("whois/ripe.db")))
	f.Add([]byte("p2o-manifest v1\n" + validManifestLine("a") + validManifestLine("b")))
	f.Add([]byte("p2o-manifest v2\nnope\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		enc := m.Encode()
		back, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("re-parse of Encode output failed: %v\nencoded: %q", err, enc)
		}
		if !m.Equal(back) {
			t.Fatalf("round trip changed manifest\nin:  %q\nout: %q", data, enc)
		}
		if !bytes.Equal(enc, back.Encode()) {
			t.Fatalf("Encode not canonical: %q vs %q", enc, back.Encode())
		}
	})
}
