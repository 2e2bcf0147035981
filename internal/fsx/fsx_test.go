package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWriteFileFailureKeepsOld: a write that fails part way leaves the
// old bytes at path and no temporary file beside them, and reports the
// writer's own error.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.db")
	if err := WriteFile(path, writeString("old\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old\n" {
		t.Fatalf("after a failed write: %q, %v; want the old bytes", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}

// TestWriteFileCreatesParent: a missing directory is created, and the
// new file gets the mode os.Create gives (0666 before umask), not
// os.CreateTemp's 0600.
func TestWriteFileCreatesParent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "data.db")
	if err := WriteFile(path, writeString("new\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new\n" {
		t.Fatalf("read back %q, %v; want %q", got, err, "new\n")
	}
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Errorf("mode = %v, want os.Create's %v", got.Mode(), want.Mode())
	}
}
