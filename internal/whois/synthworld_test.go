package whois_test

import (
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// TestLoadDirMatchesReferenceOnSmallWorld holds the run-per-registry
// load of a whole synthetic data directory — all ten registry files, the
// JPNIC type cache, RIPE's org: indirection — to the reference flatten of
// the same files merged.
func TestLoadDirMatchesReferenceOnSmallWorld(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if entries := whois.CheckLoadDir(t, dir); len(entries) < 1000 {
		t.Fatalf("only %d entries: the world is too small to mean anything", len(entries))
	}
}
