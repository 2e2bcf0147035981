package prefix2org

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
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
	if !slices.Equal(m1.Entries, m2.Entries) {
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
	if !slices.Equal(m.Entries, back.Entries) {
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
		if !slices.Equal(m.Entries, back.Entries) {
			t.Fatalf("round trip changed manifest\nin:  %q\nout: %q", data, enc)
		}
		if !bytes.Equal(enc, back.Encode()) {
			t.Fatalf("Encode not canonical: %q vs %q", enc, back.Encode())
		}
	})
}

// TestManifestFollowsLinks covers inputs reached through symbolic links,
// which the loaders follow when they open a file by its fixed name. A
// linked file is listed under its link path, so re-pointing the link is
// a change a delta sees, and rebuilds to the bytes of a full build; a
// linked source directory is listed whole; a dangling link, and a link
// back up the tree, are skipped.
func TestManifestFollowsLinks(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dir, dumps := filepath.Join(root, "data"), filepath.Join(root, "dumps")
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dumps, 0o755); err != nil {
		t.Fatal(err)
	}
	// bgp/rib.mrt is a link to the day's dump.
	rib := filepath.Join(dir, "bgp", "rib.mrt")
	if err := os.Rename(rib, filepath.Join(dumps, "rib-1.mrt")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dumps, "rib-1.mrt"), rib); err != nil {
		t.Fatal(err)
	}
	// whois/ is a link to a directory elsewhere, holding a dangling link
	// and a link to its own parent besides the registry files.
	whoisDir := filepath.Join(dir, "whois")
	if err := os.Rename(whoisDir, filepath.Join(dumps, "whois")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dumps, "whois"), whoisDir); err != nil {
		t.Fatal(err)
	}
	var want []string
	ents, err := os.ReadDir(filepath.Join(dumps, "whois"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		want = append(want, "whois/"+e.Name())
	}
	if err := os.Symlink(filepath.Join(dumps, "gone.db"), filepath.Join(dumps, "whois", "dangling.db")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dumps, "whois"), filepath.Join(dumps, "whois", "loop")); err != nil {
		t.Fatal(err)
	}

	m, err := BuildManifest(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range m.Entries {
		if strings.HasPrefix(e.Path, "whois/") {
			got = append(got, e.Path)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("whois/ entries = %v, want %v", got, want)
	}
	if !slices.ContainsFunc(m.Entries, func(e ManifestEntry) bool { return e.Path == "bgp/rib.mrt" }) {
		t.Fatalf("no bgp/rib.mrt entry for the linked RIB: %v", m.Entries)
	}

	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The next day's dump lands beside the first, and the link moves.
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 5, OriginShifts: 4}); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(root, "next")
	if err := w.WriteDir(next); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(next, "bgp", "rib.mrt"), filepath.Join(dumps, "rib-2.mrt")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(rib); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dumps, "rib-2.mrt"), rib); err != nil {
		t.Fatal(err)
	}
	res, err := BuildDelta(ctx, prev, dir, opts)
	if err != nil {
		t.Fatalf("BuildDelta after re-pointing the RIB link: %v", err)
	}
	if !slices.Equal(res.ChangedFiles, []string{"bgp/rib.mrt"}) || res.Affected == 0 {
		t.Errorf("ChangedFiles = %v, Affected = %d; want the RIB alone, and some prefix re-resolved", res.ChangedFiles, res.Affected)
	}
	full, err := BuildFromDir(ctx, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
		t.Error("delta over the re-pointed link differs from a full build")
	}
}

// TestManifestWorkers checks that hashing on a pool lists the same
// manifest whatever the pool's width.
func TestManifestWorkers(t *testing.T) {
	dir := buildWorld(t, synth.SmallConfig())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := BuildManifest(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := BuildManifest(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Entries, want.Entries) || len(got.Entries) < 10 {
			t.Errorf("GOMAXPROCS=%d: manifest of %d entries differs from GOMAXPROCS=1's %d", procs, len(got.Entries), len(want.Entries))
		}
	}
}

// manifestReference is BuildManifest as it was before it hashed on a
// pool, kept verbatim: one walk that hashes each regular file as it
// reaches it, skips links, and stops at the first error.
func manifestReference(ctx context.Context, dir string) (*Manifest, error) {
	m := &Manifest{}
	h := sha256.New()
	buf := make([]byte, 128*1024)
	for _, sub := range manifestDirs {
		root := filepath.Join(dir, sub)
		if _, err := os.Stat(root); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !d.Type().IsRegular() {
				return nil
			}
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				return err
			}
			e, err := hashFile(p, h, buf)
			if err != nil {
				return err
			}
			e.Path = filepath.ToSlash(rel)
			m.Entries = append(m.Entries, e)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path })
	return m, nil
}

// TestManifestUnreadable checks that the pool reports the error the
// reference walk stops at: the first unreadable file or directory in
// walk order, whatever else fails after it. It needs a process that
// mode 000 keeps out, so it skips under one that reads through it.
func TestManifestUnreadable(t *testing.T) {
	dir := buildWorld(t, synth.SmallConfig())
	if want, err := manifestReference(context.Background(), dir); err != nil {
		t.Fatal(err)
	} else if got, err := BuildManifest(context.Background(), dir); err != nil || !slices.Equal(got.Entries, want.Entries) {
		t.Fatalf("BuildManifest = %v, want the reference's manifest", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Walk order is whois, bgp, rpki, as2org, delegated: each step locks
	// an input ahead of every one locked before it.
	for i, step := range []string{"delegated", "rpki/snapshot.jsonl", "whois/ripe.db"} {
		p := filepath.Join(dir, filepath.FromSlash(step))
		if err := os.Chmod(p, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chmod(p, 0o755) })
		if i == 0 {
			if _, err := os.ReadDir(p); err == nil {
				t.Skip("this process reads a mode-000 directory")
			}
		}
		_, want := manifestReference(context.Background(), dir)
		if want == nil || !strings.Contains(want.Error(), step) {
			t.Fatalf("%s locked: the reference reports %v", step, want)
		}
		t.Logf("%s locked: %v", step, want)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if _, err := BuildManifest(context.Background(), dir); err == nil || err.Error() != want.Error() {
				t.Errorf("%s locked, GOMAXPROCS=%d: err = %v, want %v", step, procs, err, want)
			}
		}
	}
}
