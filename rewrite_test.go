package prefix2org

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// TestDirRewrittenWhileRead is what a -data -reload daemon sees while
// p2o-synth rewrites its directory: every read of an input file returns
// one whole version of it, never a cut one that parses short, and the
// manifest — whose walk lists the writer's temporary files — never
// fails.
func TestDirRewrittenWhileRead(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.Evolve(synth.EvolveOptions{Seed: 9, Transfers: 3, NewAdopters: 2, OriginShifts: 4})
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*synth.World{w, w2}
	files := []string{"whois/ripe.db", bgp.SnapshotFile, rpki.SnapshotFile, as2org.DatasetFile}
	versions := map[string][][]byte{}
	for _, world := range worlds {
		d := t.TempDir()
		if err := world.WriteDir(d); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				t.Fatal(err)
			}
			versions[f] = append(versions[f], b)
		}
	}

	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := worlds[i%2].WriteDir(dir); err != nil {
				done <- err
				return
			}
		}
	}()
	// Registered after TempDir, so the writer stops before dir goes.
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("WriteDir: %v", err)
		}
	})

	for round := range 300 {
		for _, f := range files {
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if v := versions[f]; !bytes.Equal(got, v[0]) && !bytes.Equal(got, v[1]) {
				t.Fatalf("round %d: %s is torn: %d bytes, neither version (%d or %d bytes)", round, f, len(got), len(v[0]), len(v[1]))
			}
		}
		if _, err := BuildManifest(context.Background(), dir); err != nil {
			t.Fatalf("round %d: BuildManifest: %v", round, err)
		}
	}
}
