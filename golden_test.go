package prefix2org

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// Golden digests, captured on the commit before the radix tree left the
// build path. They pin output across commits — the determinism and
// delta ≡ full tests only ever compare a commit with itself. A change
// that moves either one changes what every consumer of the synthetic
// world or of a snapshot sees (bench's workload_digest included) and
// must say so; never re-record them to make a refactor pass.
const (
	// sha256 over the input manifests of the DefaultConfig world's
	// emitted tree and of the tree after one fixed Evolve step.
	goldenSynthTreeDigest = "2a19830347113cc9b7dc5441b693a3d436169a7241789336996caf2d63a303b5"
	// sha256 of SaveBinary over the Dataset built from the first tree.
	goldenSnapshotDigest = "b6dbae6f07ce7b5194b5c1df5d10e492ebe5f1a28a41f5ac3c385397d49d709f"
)

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale world generation and build")
	}
	ctx := context.Background()
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	root := t.TempDir()
	tree := sha256.New()
	emit := func(w *synth.World, name string) string {
		dir := filepath.Join(root, name)
		if err := w.WriteDir(dir); err != nil {
			t.Fatalf("WriteDir: %v", err)
		}
		m, err := BuildManifest(ctx, dir)
		if err != nil {
			t.Fatalf("BuildManifest: %v", err)
		}
		tree.Write(m.Encode())
		return dir
	}
	dir := emit(w, "s0")
	// Every kind of churn at once: the re-emission walks the RPKI,
	// WHOIS, BGP and AS2Org emitters again over mutated state.
	w1, err := w.Evolve(synth.EvolveOptions{
		Seed: 42, Transfers: 5, NewDelegations: 5, NewAdopters: 3,
		Acquisitions: 2, OriginShifts: 20, Revocations: 3,
	})
	if err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	emit(w1, "s1")
	if got := hex.EncodeToString(tree.Sum(nil)); got != goldenSynthTreeDigest {
		t.Errorf("synth tree digest = %s, want %s", got, goldenSynthTreeDigest)
	}

	ds, err := BuildFromDir(ctx, dir, Options{})
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	var buf bytes.Buffer
	if err := ds.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotDigest {
		t.Errorf("snapshot digest = %s, want %s (%d bytes)", got, goldenSnapshotDigest, buf.Len())
	}

	// How those bytes are produced: the file is assembled once, at its
	// final size, and handed over whole. The writer's own working set
	// (string table, refs awaiting their columns) is well under the
	// file's size again; 3× leaves room for it, not for a second copy of
	// every column, which is what the bound is here to catch.
	// MemStats counts the whole process, so the least of a few saves.
	alloc := uint64(math.MaxUint64)
	for range 3 {
		var cw countingWriter
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = ds.SaveBinary(&cw)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("SaveBinary: %v", err)
		}
		if cw.calls != 1 || cw.bytes != buf.Len() {
			t.Errorf("SaveBinary made %d Write calls for %d bytes, want 1 call of %d bytes", cw.calls, cw.bytes, buf.Len())
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := 3 * uint64(buf.Len()); alloc > limit {
		t.Errorf("one SaveBinary allocated %d bytes for a %d-byte snapshot, want at most %d", alloc, buf.Len(), limit)
	}
}

// countingWriter counts Write calls and the bytes they carried.
type countingWriter struct{ calls, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}
