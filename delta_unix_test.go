//go:build unix

package prefix2org

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// TestManifestHashedBeforeLoads pins the order of a build's manifest
// pass and its loads: a file replaced after the manifest pass and before
// its loader runs is recorded under the hash of what it was, so the next
// BuildDelta lists it as changed and the chain ends byte-identical to a
// fresh full build. Hashed after the loads, the replacement would go
// unnoticed in one order of events or the other (new hash beside old
// content), and every later delta would answer ErrNoChange.
func TestManifestHashedBeforeLoads(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir, evolved := t.TempDir(), t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 3, OriginShifts: 5}); err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	if err := w.WriteDir(evolved); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	const rib = "bgp/rib.mrt"
	newRIB, err := os.ReadFile(filepath.Join(evolved, rib))
	if err != nil {
		t.Fatal(err)
	}

	// With one worker the whois job runs first and reads the ARIN legacy
	// list last. As a named pipe — which the manifest walk, hashing regular
	// files only, skips — the list holds the job there: the manifest pass is
	// over and the bgp job has not started.
	legacyPath := filepath.Join(dir, "whois", whois.ARINLegacyFile)
	legacy, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(legacyPath); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(legacyPath, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	opts := Options{Incremental: true, Workers: 1}
	type built struct {
		ds  *Dataset
		err error
	}
	done := make(chan built, 1)
	go func() {
		ds, err := BuildFromDir(ctx, dir, opts)
		done <- built{ds, err}
	}()
	// If the loaders stop meeting the test at the pipe — the list read
	// twice, or not at all — an open on one side of it blocks for good.
	// The watchdog then releases both sides, and the test fails with the
	// order the build's stages ran in.
	watchdog := time.AfterFunc(30*time.Second, func() { releaseFIFO(legacyPath, legacy) })
	feedErr := func() error {
		// Opening a pipe for writing returns when the reader has opened it.
		pipe, err := os.OpenFile(legacyPath, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer pipe.Close()
		if err := os.WriteFile(filepath.Join(dir, rib), newRIB, 0o644); err != nil {
			return err
		}
		if _, err := pipe.Write(legacy); err != nil {
			return err
		}
		return pipe.Close()
	}()
	first := <-done
	if !watchdog.Stop() {
		var stages []string
		if first.ds != nil {
			for _, s := range first.ds.Trace.Spans() {
				stages = append(stages, s.Name)
			}
		}
		t.Fatalf("the build and the test did not meet at %s within 30s (feeding it: %v; build: %v); stages ran in the order %v",
			whois.ARINLegacyFile, feedErr, first.err, stages)
	}
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	if first.err != nil {
		t.Fatalf("BuildFromDir: %v", first.err)
	}
	if err := os.Remove(legacyPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	// The build parsed the new RIB under a manifest that holds the old one.
	for _, e := range first.ds.InputManifest().Entries {
		if e.Path == rib && e.SHA256 == sha256.Sum256(newRIB) {
			t.Fatal("the manifest holds the replacement's hash: it was not hashed before the loads")
		}
	}
	res, err := BuildDelta(ctx, first.ds, dir, opts)
	if err != nil {
		t.Fatalf("BuildDelta after a mid-build replacement: %v", err)
	}
	if !slices.Contains(res.ChangedFiles, rib) {
		t.Errorf("ChangedFiles = %v, want %s among them", res.ChangedFiles, rib)
	}
	full, err := BuildFromDir(ctx, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
		t.Error("the chain differs from a fresh full build")
	}
}

// releaseFIFO wakes every open still blocked on the named pipe at path
// and puts content there as a regular file for any open yet to come. A
// reader and a writer opened without blocking are each other's partner
// and that of whatever waits; a woken reader then sees EOF, a woken
// writer EPIPE.
func releaseFIFO(path string, content []byte) {
	r, rerr := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	w, werr := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
	_ = os.Remove(path)                    // best effort: the test is already failing
	_ = os.WriteFile(path, content, 0o644) // likewise
	if rerr == nil {
		r.Close()
	}
	if werr == nil {
		w.Close()
	}
}
