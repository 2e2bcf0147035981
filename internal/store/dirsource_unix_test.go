//go:build unix

package store_test

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/store"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// TestDirSourceCertsFromTheParsedRPKI pins that a full-build snapshot's
// Dataset is resolved against the one parse of rpki/ the build made:
// rpki/ is swapped for another world's after the build has parsed it and
// before the build returns, and every record's RPKI certificate still
// comes from the first file. A second read of rpki/ later in the build
// would resolve some records against the second file.
func TestDirSourceCertsFromTheParsedRPKI(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir, otherDir := t.TempDir(), t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg := synth.SmallConfig()
	cfg.Seed++
	other, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteDir(otherDir); err != nil {
		t.Fatal(err)
	}
	otherRPKI, err := os.ReadFile(filepath.Join(otherDir, rpki.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rpki.LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	// With one worker the as2org job runs right after the rpki job; as a
	// named pipe its file holds the build there until the test writes it.
	asPath := filepath.Join(dir, as2org.DatasetFile)
	asData, err := os.ReadFile(asPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(asPath); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(asPath, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	type built struct {
		snap *store.Snapshot
		err  error
	}
	done := make(chan built, 1)
	go func() {
		snap, err := store.DirSource(dir, prefix2org.Options{Workers: 1}).Build(context.Background())
		done <- built{snap, err}
	}()
	// If the loaders stop meeting the test at the pipe — the file read
	// twice, or not at all — an open on one side of it blocks for good.
	// The watchdog then releases both sides, and the test fails with the
	// order the build's stages ran in.
	watchdog := time.AfterFunc(30*time.Second, func() { releaseFIFO(asPath, asData) })
	feedErr := func() error {
		// Opening a pipe for writing returns when the reader has opened it.
		pipe, err := os.OpenFile(asPath, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer pipe.Close()
		if err := os.WriteFile(filepath.Join(dir, rpki.SnapshotFile), otherRPKI, 0o644); err != nil {
			return err
		}
		if _, err := pipe.Write(asData); err != nil {
			return err
		}
		return pipe.Close()
	}()
	b := <-done
	if !watchdog.Stop() {
		var stages []string
		if b.snap != nil {
			for _, s := range b.snap.Dataset.Trace.Spans() {
				stages = append(stages, s.Name)
			}
		}
		t.Fatalf("the build and the test did not meet at %s within 30s (feeding it: %v; build: %v); stages ran in the order %v",
			as2org.DatasetFile, feedErr, b.err, stages)
	}
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	if b.err != nil {
		t.Fatal(b.err)
	}

	skis := make(map[string]bool, len(want.Certs))
	for i := range want.Certs {
		skis[want.Certs[i].SKI] = true
	}
	covered := 0
	for i := 0; i < b.snap.Dataset.NumRecords(); i++ {
		if ski := b.snap.Dataset.RecordAt(i).RPKICert; ski != "" {
			covered++
			if !skis[ski] {
				t.Fatalf("record %s is covered by %s, which is not in the file the build parsed", b.snap.Dataset.RecordAt(i).Prefix, ski)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no record is RPKI-covered: the check compared nothing")
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
