//go:build unix

package prefix2org

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// otherDataset is a one-record dataset unlike any synthetic world.
func otherDataset() *Dataset {
	return &Dataset{Records: []Record{{
		Prefix: netip.MustParsePrefix("203.0.113.0/24"), RIR: "ARIN",
		DirectOwner: "Other Net", DOType: "allocation", FinalCluster: "other",
	}}}
}

// TestExportReplacesMappedSnapshot is the export-over-a-served-file
// runbook: a daemon maps a v2 snapshot, and the file is exported again
// at the same path. The export must land as a new file renamed into
// place — never a truncate and rewrite of the mapped one, which would
// SIGBUS the daemon's next query — so the old mapping reads on intact.
func TestExportReplacesMappedSnapshot(t *testing.T) {
	_, ds := buildWorldDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.p2o")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	view, err := OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if !view.Lazy() {
		t.Fatal("v2 snapshot did not open as a view")
	}

	if err := otherDataset().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		// Stop before touching the view: its pages may be gone.
		t.Fatal("export rewrote the mapped file in place (same inode)")
	}
	lazyEquivalent(t, ds, view) // every record, from the old mapping

	back, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != 1 || back.RecordAt(0).DirectOwner != "Other Net" {
		t.Errorf("path does not hold the new export: %d records", back.NumRecords())
	}
	// The replacement has os.Create's permissions, and no temporary file
	// is left beside it.
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refInfo, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Mode().Perm(), refInfo.Mode().Perm(); got != want {
		t.Errorf("exported file mode %v, want os.Create's %v", got, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("directory holds %v (err %v), want world.p2o and ref", entries, err)
	}
}

// TestExportToFIFOWritesThrough: a path that is not a regular file — a
// FIFO here, /dev/stdout in a shell — is written, not replaced.
func TestExportToFIFOWritesThrough(t *testing.T) {
	ds := otherDataset()
	var want bytes.Buffer
	if err := ds.Save(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// Holding both ends keeps every open of the pipe from blocking; the
	// snapshot is far below the pipe buffer, so the save never waits.
	pipe, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(pipe, got); err != nil {
		t.Fatalf("reading the export from the FIFO: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("FIFO carried different bytes than Save writes")
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("the FIFO was replaced: %v, %v", fi, err)
	}
}
