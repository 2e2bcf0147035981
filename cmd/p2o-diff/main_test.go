package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/synth"
)

func TestRunDiff(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir1 := t.TempDir()
	if err := w.WriteDir(dir1); err != nil {
		t.Fatal(err)
	}
	ds1, err := prefix2org.BuildFromDir(context.Background(), dir1, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.jsonl")
	if err := ds1.SaveFile(old); err != nil {
		t.Fatal(err)
	}
	w2, err := w.Evolve(synth.EvolveOptions{Seed: 9, Transfers: 5, NewDelegations: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := w2.WriteDir(dir2); err != nil {
		t.Fatal(err)
	}
	ds2, err := prefix2org.BuildFromDir(context.Background(), dir2, prefix2org.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(t.TempDir(), "new.jsonl")
	if err := ds2.SaveFile(cur); err != nil {
		t.Fatal(err)
	}
	if err := run(old, cur, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := run("/nonexistent/old.jsonl", cur, 5, false); err == nil {
		t.Error("missing old snapshot accepted")
	}
	if err := run(old, "/nonexistent/new.jsonl", 5, false); err == nil {
		t.Error("missing new snapshot accepted")
	}

	// -json: the exact changeset as NDJSON, one self-describing object
	// per line.
	out := captureStdout(t, func() {
		if err := run(old, cur, 5, true); err != nil {
			t.Fatal(err)
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("-json produced no output for a churned world")
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var obj struct {
			Kind   string `json:"kind"`
			Change string `json:"change"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("-json line is not JSON: %v\n%s", err, line)
		}
		if obj.Kind != "prefix" && obj.Kind != "org" {
			t.Fatalf("-json line kind = %q, want prefix or org:\n%s", obj.Kind, line)
		}
		if obj.Change == "" {
			t.Fatalf("-json line missing change discriminator:\n%s", line)
		}
		kinds[obj.Kind]++
	}
	if kinds["prefix"] == 0 {
		t.Errorf("-json reported no prefix changes for Transfers+NewDelegations churn (kinds %v)", kinds)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote (run streams -json output straight to stdout).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	w.Close()
	os.Stdout = saved
	return <-done
}
