package prefix2org

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// snapshotBytes serializes ds as a v2 binary snapshot — the
// byte-identity yardstick of the delta ≡ full invariant.
func snapshotBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	return buf.Bytes()
}

// TestDeltaEquivalence is the tentpole invariant: after every synth
// evolution step, an incremental BuildDelta must produce a snapshot
// byte-for-byte identical to a full BuildFromDir over the same
// directory. Deltas chain (each step splices against the previous
// delta's state), and the step mix exercises every source: BGP-only
// churn (OriginShifts), RPKI-only churn (Revocations), WHOIS-heavy
// churn (Transfers, NewDelegations), and cross-source churn
// (Acquisitions + NewAdopters + a date shift).
func TestDeltaEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-snapshot pipeline runs")
	}
	ctx := context.Background()
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}

	steps := []struct {
		opts synth.EvolveOptions
		// wantAffected: the step must force some re-resolution.
		// Revocations are ROA-only (synth keeps the certificates), so
		// no Record changes — the delta legitimately re-resolves
		// nothing.
		wantAffected bool
		// wantReused: most slots splice. A date shift (MonthsLater)
		// touches every WHOIS record's Updated field, so the whole
		// world is legitimately dirty.
		wantReused bool
	}{
		{synth.EvolveOptions{Seed: 101, OriginShifts: 6}, true, true},
		{synth.EvolveOptions{Seed: 102, Revocations: 2}, false, true},
		{synth.EvolveOptions{Seed: 103, Transfers: 4}, true, true},
		{synth.EvolveOptions{Seed: 104, NewDelegations: 3}, true, true},
		{synth.EvolveOptions{Seed: 105, Acquisitions: 2, NewAdopters: 1}, true, true},
		{synth.EvolveOptions{Seed: 106, MonthsLater: 1}, true, false},
	}
	for i, tc := range steps {
		step := tc.opts
		w, err = w.Evolve(step)
		if err != nil {
			t.Fatalf("step %d: Evolve: %v", i, err)
		}
		if err := w.WriteDir(dir); err != nil {
			t.Fatalf("step %d: WriteDir: %v", i, err)
		}
		res, err := BuildDelta(ctx, prev, dir, opts)
		if err != nil {
			t.Fatalf("step %d (%+v): BuildDelta: %v", i, step, err)
		}
		full, err := BuildFromDir(ctx, dir, opts)
		if err != nil {
			t.Fatalf("step %d: BuildFromDir: %v", i, err)
		}
		if got, want := snapshotBytes(t, res.Dataset), snapshotBytes(t, full); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%+v): delta snapshot differs from full rebuild (%d vs %d bytes)", i, step, len(got), len(want))
		}
		if tc.wantAffected && res.Affected == 0 {
			t.Errorf("step %d (%+v): delta re-resolved nothing; the step should have produced churn", i, step)
		}
		if tc.wantReused && res.Reused == 0 {
			t.Errorf("step %d (%+v): delta reused nothing; expected most slots to splice", i, step)
		}
		t.Logf("step %d: changed=%d affected=%d reused=%d removed=%d",
			i, len(res.ChangedFiles), res.Affected, res.Reused, res.Removed)
		prev = res.Dataset
	}

	// A rebuild over an untouched directory is a no-op.
	if _, err := BuildDelta(ctx, prev, dir, opts); !errors.Is(err, ErrNoChange) {
		t.Fatalf("BuildDelta over unchanged dir: err = %v, want ErrNoChange", err)
	}
}

// TestDeltaSourceScoping checks that single-source churn re-parses and
// re-resolves narrowly: a BGP-only evolution step must not re-parse
// rpki/, and must touch only the bgp/ file.
func TestDeltaSourceScoping(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 7, OriginShifts: 5}); err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	res, err := BuildDelta(ctx, prev, dir, opts)
	if err != nil {
		t.Fatalf("BuildDelta: %v", err)
	}
	if len(res.ChangedFiles) != 1 || res.ChangedFiles[0] != "bgp/rib.mrt" {
		t.Errorf("ChangedFiles = %v, want [bgp/rib.mrt]", res.ChangedFiles)
	}
	if res.Dataset.state.env.certs != prev.state.env.certs {
		t.Errorf("the RPKI repository was reloaded despite rpki/ being untouched")
	}
	total := len(res.Dataset.state.routed)
	if res.Affected >= total/2 {
		t.Errorf("Affected = %d of %d routed; BGP-only churn should re-resolve a small subset", res.Affected, total)
	}
}

func TestDeltaNoState(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	ds, err := BuildFromDir(ctx, dir, Options{}) // no Incremental
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if _, err := BuildDelta(ctx, ds, dir, Options{}); !errors.Is(err, ErrNoDeltaState) {
		t.Fatalf("BuildDelta without state: err = %v, want ErrNoDeltaState", err)
	}
	if _, err := BuildDelta(ctx, nil, dir, Options{}); !errors.Is(err, ErrNoDeltaState) {
		t.Fatalf("BuildDelta(nil): err = %v, want ErrNoDeltaState", err)
	}
}

func TestDeltaOptsMismatch(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	ds, err := BuildFromDir(ctx, dir, Options{Incremental: true})
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	_, err = BuildDelta(ctx, ds, dir, Options{Incremental: true, DisableNameCleaning: true})
	if err == nil || errors.Is(err, ErrNoChange) || errors.Is(err, ErrNoDeltaState) {
		t.Fatalf("BuildDelta with mismatched options: err = %v, want option-compatibility error", err)
	}
}

// deltaFixture builds a small Incremental dataset over dir, then evolves
// the world so whois/, rpki/ and bgp/ files all change and rewrites dir.
func deltaFixture(t *testing.T) (dir string, prev *Dataset) {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir = t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	prev, err = BuildFromDir(context.Background(), dir, Options{Incremental: true})
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 9, Transfers: 3, NewAdopters: 2, OriginShifts: 4}); err != nil {
		t.Fatalf("Evolve: %v", err)
	}
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	return dir, prev
}

// TestDeltaWorkersDeterminism is TestParallelBuildDeterminism for the
// delta path: with the changed sources reloaded concurrently, a delta
// spanning whois, rpki and bgp is byte-identical and traces the same
// spans in the same order at every worker count. make verify runs it
// under -race, which is the check that each job writes only its own
// results.
func TestDeltaWorkersDeterminism(t *testing.T) {
	dir, prev := deltaFixture(t)
	var want []byte
	var wantSpans []string
	for _, workers := range []int{1, 2, 8} {
		res, err := BuildDelta(context.Background(), prev, dir, Options{Incremental: true, Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: BuildDelta: %v", workers, err)
		}
		sources := map[string]bool{}
		for _, p := range res.ChangedFiles {
			source, _, _ := strings.Cut(p, "/")
			sources[source] = true
		}
		if !sources["whois"] || !sources["rpki"] || !sources["bgp"] {
			t.Fatalf("changed files %v do not span whois, rpki and bgp", res.ChangedFiles)
		}
		var spans []string
		for _, s := range res.Dataset.Trace.Spans() {
			spans = append(spans, s.Name)
		}
		got := snapshotBytes(t, res.Dataset)
		if want == nil {
			want, wantSpans = got, spans
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: snapshot differs from Workers=1", workers)
		}
		if !slices.Equal(spans, wantSpans) {
			t.Errorf("Workers=%d: trace spans %v, want %v", workers, spans, wantSpans)
		}
	}
	full, err := BuildFromDir(context.Background(), dir, Options{})
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if !bytes.Equal(want, snapshotBytes(t, full)) {
		t.Error("delta snapshot differs from a full rebuild")
	}
}

// TestLoaderRunner covers the contract of the one runner under
// BuildFromDir and BuildDelta, serial and concurrent: which error wins,
// what a cancelled context surfaces as, and that a failed delta leaves
// prev as it was.
func TestLoaderRunner(t *testing.T) {
	dir, prev := deltaFixture(t)
	rpkiFile := filepath.Join(dir, "rpki", "snapshot.jsonl")
	goodRPKI, err := os.ReadFile(rpkiFile)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	errA, errB := errors.New("job a failed"), errors.New("job b failed")

	for _, workers := range []int{1, 2, 8} {
		opts := Options{Incremental: true, Workers: workers}
		for _, tc := range []struct {
			name string
			run  func() error
			ok   func(error) bool
		}{
			{"two jobs fail: the first in job order wins", func() error {
				aRunning := make(chan struct{})
				return runLoaders(context.Background(), obs.NewTrace("test"), workers, []loadJob{
					{"a", func(ctx context.Context, _ *obs.Span) error {
						if workers > 1 {
							// Fail second in time: b's failure cancels ctx.
							close(aRunning)
							<-ctx.Done()
						}
						return errA
					}},
					{"b", func(context.Context, *obs.Span) error {
						if workers > 1 {
							<-aRunning
						}
						return errB
					}},
				})
			}, func(err error) bool { return err == errA }},
			{"a job aborted by the caller's cancellation", func() error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				return runLoaders(ctx, obs.NewTrace("test"), workers, []loadJob{
					{"a", func(ctx context.Context, _ *obs.Span) error {
						cancel()
						<-ctx.Done()
						return fmt.Errorf("load a: %w", ctx.Err())
					}},
				})
			}, func(err error) bool { return err == context.Canceled }},
			{"BuildFromDir, cancelled context", func() error {
				_, err := BuildFromDir(cancelled, dir, opts)
				return err
			}, func(err error) bool { return err == context.Canceled }},
			{"BuildDelta, cancelled context", func() error {
				_, err := BuildDelta(cancelled, prev, dir, opts)
				return err
			}, func(err error) bool { return err == context.Canceled }},
			{"BuildDelta, corrupt rpki beside a valid whois change", func() error {
				if err := os.WriteFile(rpkiFile, []byte("{broken\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				defer os.WriteFile(rpkiFile, goodRPKI, 0o644)
				_, err := BuildDelta(context.Background(), prev, dir, opts)
				return err
			}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "load rpki") }},
		} {
			if err := tc.run(); !tc.ok(err) {
				t.Errorf("Workers=%d: %s: err = %v", workers, tc.name, err)
			}
		}

		// prev survived the failures above: the next delta against it
		// succeeds and equals a full rebuild.
		res, err := BuildDelta(context.Background(), prev, dir, opts)
		if err != nil {
			t.Fatalf("Workers=%d: BuildDelta after failed deltas: %v", workers, err)
		}
		full, err := BuildFromDir(context.Background(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
			t.Errorf("Workers=%d: delta after failed deltas differs from a full rebuild", workers)
		}
	}
}

// TestDeltaManySmallSteps chains single-object edits — one origin shift,
// one transfer, one new delegation, one revocation, one new adopter, in
// turn — through BuildDelta, each step splicing against the state the
// previous delta assembled. State carried across that many rebuilds must
// not drift: after every step the clusters and Stats equal the §5.3
// reference over that step's Records, and every tenth step, and the
// last, is byte-identical to a fresh full build of the same directory.
//
// It is also the gate on a delta doing work proportional to the change,
// stated on work avoided, which no machine's speed or core count moves:
// no step may re-resolve more than a tenth of its records, nor the chain
// more than 2% of the records it visits. The seeds are fixed, so the
// figures are exact: 327 of 78 935 (0.41%), worst step 41 of 1 259.
func TestDeltaManySmallSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("60+ chained pipeline runs")
	}
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	checkReference(t, "full build", prev)
	edits := []synth.EvolveOptions{
		{OriginShifts: 1}, {Transfers: 1}, {NewDelegations: 1}, {Revocations: 1}, {NewAdopters: 1},
	}
	const steps = 65
	deltas, affected, visited := 0, 0, 0
	for i := 1; i <= steps; i++ {
		edit := edits[i%len(edits)]
		edit.Seed = int64(1000 + i)
		if w, err = w.Evolve(edit); err != nil {
			t.Fatalf("step %d (%+v): Evolve: %v", i, edit, err)
		}
		if err := w.WriteDir(dir); err != nil {
			t.Fatalf("step %d: WriteDir: %v", i, err)
		}
		res, err := BuildDelta(ctx, prev, dir, opts)
		switch {
		case errors.Is(err, ErrNoChange):
			// The edit found no eligible object (e.g. no adopter left to
			// revoke): the directory is as it was, and prev stands.
		case err != nil:
			t.Fatalf("step %d (%+v): BuildDelta: %v", i, edit, err)
		default:
			prev = res.Dataset
			deltas++
			n := prev.NumRecords()
			affected += res.Affected
			visited += n
			if res.Affected*10 > n {
				t.Errorf("step %d (%+v): re-resolved %d of %d records, more than a tenth", i, edit, res.Affected, n)
			}
			checkReference(t, fmt.Sprintf("step %d (%+v)", i, edit), prev)
		}
		if i%10 != 0 && i != steps {
			continue
		}
		full, err := BuildFromDir(ctx, dir, Options{})
		if err != nil {
			t.Fatalf("step %d: BuildFromDir: %v", i, err)
		}
		if !bytes.Equal(snapshotBytes(t, prev), snapshotBytes(t, full)) {
			t.Fatalf("step %d: the delta chain differs from a full rebuild", i)
		}
	}
	if deltas < 60 {
		t.Fatalf("only %d of %d steps changed the directory; the chain is shorter than the test claims", deltas, steps)
	}
	if affected*50 > visited {
		t.Errorf("%d deltas re-resolved %d of %d record-visits, more than 2%%: a delta no longer does work proportional to the change", deltas, affected, visited)
	}
	t.Logf("%d deltas re-resolved %d of %d record-visits (%.2f%%)", deltas, affected, visited, 100*float64(affected)/float64(visited))
}

// TestDeltaReflattensChangedRegistry checks the granularity of a
// WHOIS-touching reload: each registry file flattens into a run of its
// own, so a delta re-parses and re-flattens only the registries whose
// file changed — JPNIC also when only its allocation-type cache did,
// since the types are part of its keys — and merges the rest from the
// previous build, to the bytes a full build writes.
func TestDeltaReflattensChangedRegistry(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	reflattened := func(ds *Dataset) int64 {
		span, ok := ds.Trace.Span("flatten-whois")
		if !ok {
			t.Fatal("no flatten-whois span")
		}
		return span.Count("reflattened")
	}
	if n := reflattened(prev); n < 8 {
		t.Fatalf("the full build flattened %d registry files; the world should have most of the ten", n)
	}
	edits := []struct{ file, old, new string }{
		// One TWNIC holder renamed.
		{"whois/twnic.db", "\ndescr: ", "\ndescr: Renamed "},
		// One JPNIC block retyped, in the cache alone.
		{"whois/jpnic-alloctypes.db", "|ALLOCATED PORTABLE\n", "|ASSIGNED PORTABLE\n"},
	}
	for _, e := range edits {
		path := filepath.Join(dir, filepath.FromSlash(e.file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(data, []byte(e.old), []byte(e.new), 1)
		if bytes.Equal(edited, data) {
			t.Fatalf("%s: nothing to edit", e.file)
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := BuildDelta(ctx, prev, dir, opts)
		if err != nil {
			t.Fatalf("%s: BuildDelta: %v", e.file, err)
		}
		if !slices.Equal(res.ChangedFiles, []string{e.file}) {
			t.Errorf("%s: ChangedFiles = %v", e.file, res.ChangedFiles)
		}
		if n := reflattened(res.Dataset); n != 1 {
			t.Errorf("%s: the delta re-flattened %d registries, want 1", e.file, n)
		}
		if res.Affected == 0 {
			t.Errorf("%s: the delta re-resolved nothing", e.file)
		}
		full, err := BuildFromDir(ctx, dir, opts)
		if err != nil {
			t.Fatalf("%s: BuildFromDir: %v", e.file, err)
		}
		if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
			t.Errorf("%s: delta snapshot differs from full rebuild", e.file)
		}
		prev = res.Dataset
	}
}

// TestDeltaKeepsUnmappedSlots covers the slot a splice keeps for a routed
// prefix with no Record: kept slots are read back from the previous
// Records, and a prefix that was routed but is not among them was
// unmapped — and stays so, in the same bytes a full build writes.
func TestDeltaKeepsUnmappedSlots(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	// Without AFRINIC's registrations its routed space has no holder.
	if err := os.Remove(filepath.Join(dir, "whois", "afrinic.db")); err != nil {
		t.Fatal(err)
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if prev.Stats.Unmapped == 0 {
		t.Fatal("no unmapped prefix: the test covers nothing")
	}
	path := filepath.Join(dir, "whois", "twnic.db")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte("\ndescr: "), []byte("\ndescr: Renamed "), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := BuildDelta(ctx, prev, dir, opts)
	if err != nil {
		t.Fatalf("BuildDelta: %v", err)
	}
	if res.Reused < prev.Stats.Unmapped || res.Dataset.Stats.Unmapped != prev.Stats.Unmapped {
		t.Errorf("reused %d slots, %d unmapped before and %d after", res.Reused, prev.Stats.Unmapped, res.Dataset.Stats.Unmapped)
	}
	full, err := BuildFromDir(ctx, dir, opts)
	if err != nil {
		t.Fatalf("BuildFromDir: %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
		t.Error("delta snapshot differs from full rebuild")
	}
}

// spliceReference is the splice's affected predicate as it was before
// the origins column: every origin looked up in the BGP tables by
// prefix, a binary search of each table's prefix column, not a read of
// the origins column by position. It returns the positions in
// next.routed to re-resolve and the number of prefixes old routed and
// next does not.
func spliceReference(old, next *buildState, regionIdx *lpm.Index) (idxs []int, removed int) {
	env := next.env
	bgpChanged, as2orgChanged := env.table != old.env.table, env.asClusters != old.env.asClusters
	oldIdx, common := 0, 0
	for i, p := range next.routed {
		for oldIdx < len(old.routed) && netx.Compare(old.routed[oldIdx], p) < 0 {
			oldIdx++
		}
		hasOld := oldIdx < len(old.routed) && old.routed[oldIdx] == p
		if hasOld {
			common++
		}
		aff := !hasOld
		if !aff && bgpChanged {
			oldO, oldHas := old.env.table.Origin(p)
			newO, newHas := env.table.Origin(p)
			aff = oldHas != newHas || oldO != newO
		}
		if !aff && as2orgChanged {
			if origin, has := env.table.Origin(p); has &&
				old.env.asClusters.ClusterID(origin) != env.asClusters.ClusterID(origin) {
				aff = true
			}
		}
		if !aff && regionIdx != nil {
			if _, ok := regionIdx.LookupPrefix(p); ok {
				aff = true
			}
		}
		if aff {
			idxs = append(idxs, i)
		}
	}
	return idxs, len(old.routed) - common
}

// TestSpliceMatchesReference holds the splice that reads origins by
// position to the one that hashed each prefix into both BGP tables: over
// a chain of evolution steps — origin shifts (MOAS prefixes among them),
// AS2Org churn, prefixes announced and, on the way back, withdrawn — both
// pick the same prefixes to re-resolve, and the delta reports them. The
// origins column itself is the table's Origin, prefix by prefix.
func TestSpliceMatchesReference(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "s0")}
	if err := w.WriteDir(dirs[0]); err != nil {
		t.Fatal(err)
	}
	for i, step := range []synth.EvolveOptions{
		{OriginShifts: 8},
		{Acquisitions: 2, OriginShifts: 3},
		{NewDelegations: 4, Transfers: 2},
		{NewAdopters: 2, OriginShifts: 5},
	} {
		step.Seed = int64(300 + i)
		if w, err = w.Evolve(step); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("s%d", i+1)))
		if err := w.WriteDir(dirs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Incremental: true}
	prev, err := BuildFromDir(ctx, dirs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	moas := 0
	for _, p := range prev.state.routed {
		if len(prev.state.env.table.Origins(p)) > 1 {
			moas++
		}
	}
	if moas == 0 {
		t.Fatal("no MOAS prefix in the world: the chain covers no lowest-origin choice")
	}
	var sawOrigin, sawAS2Org, sawAdded, sawRemoved bool
	// Forward through every step, then straight back to the start.
	for _, dir := range append(dirs[1:], dirs[0]) {
		res, err := BuildDelta(ctx, prev, dir, opts)
		if err != nil {
			t.Fatalf("%s: BuildDelta: %v", filepath.Base(dir), err)
		}
		old, next := prev.state, res.Dataset.state
		for i, p := range next.routed {
			if o, _ := next.env.table.Origin(p); next.origins[i] != o {
				t.Fatalf("%s: origins[%d] = %d, table.Origin(%s) = %d", filepath.Base(dir), i, next.origins[i], p, o)
			}
		}
		_, regionIdx := dirtyRegions(old.env, next.env)
		_, _, _, idxs, removed := splice(old, next, prev.Records, regionIdx)
		refIdxs, refRemoved := spliceReference(old, next, regionIdx)
		if !slices.Equal(idxs, refIdxs) || removed != refRemoved {
			t.Errorf("%s: splice re-resolves %d prefixes and counts %d removed; the reference %d and %d",
				filepath.Base(dir), len(idxs), removed, len(refIdxs), refRemoved)
		}
		if res.Affected != len(refIdxs) || res.Reused != len(next.routed)-len(refIdxs) || res.Removed != refRemoved {
			t.Errorf("%s: Affected/Reused/Removed = %d/%d/%d, the reference %d/%d/%d", filepath.Base(dir),
				res.Affected, res.Reused, res.Removed, len(refIdxs), len(next.routed)-len(refIdxs), refRemoved)
		}
		if next.env.table != old.env.table && !slices.Equal(next.routed, old.routed) {
			sawAdded = sawAdded || len(next.routed)+refRemoved > len(old.routed)
		}
		sawRemoved = sawRemoved || refRemoved > 0
		sawAS2Org = sawAS2Org || next.env.asClusters != old.env.asClusters
		for i := range next.routed {
			j, ok := slices.BinarySearchFunc(old.routed, next.routed[i], netx.Compare)
			if ok && old.origins[j] != next.origins[i] {
				sawOrigin = true
			}
		}
		prev = res.Dataset
	}
	if !sawOrigin || !sawAS2Org || !sawAdded || !sawRemoved {
		t.Errorf("the chain missed a kind of churn: origin shift %v, as2org %v, prefix added %v, withdrawn %v",
			sawOrigin, sawAS2Org, sawAdded, sawRemoved)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n+1st call: a cancellation that lands at each check of a pass in turn.
type cancelAfter struct {
	context.Context
	calls atomic.Int32
	n     int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestFinishCancelled cancels finish at each of its checks in turn, at
// one worker and at several, from scratch and reusing the clean-names
// state: it returns the context's error, and every pass it started
// beside the caller has returned by then. One P keeps those passes from
// running before the caller blocks, so one left behind is still there to
// count when finish returns.
func TestFinishCancelled(t *testing.T) {
	dir := buildWorld(t, synth.SmallConfig())
	want, err := BuildFromDir(context.Background(), dir, Options{Workers: 1, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{1, 2, 8} {
		for _, prev := range []finishState{{}, want.state.fin} {
			opts := Options{Workers: workers}
			// Against the built state every record is kept as it is.
			from := make([]int32, len(want.Records))
			for i := range from {
				from[i] = int32(i)
			}
			cancelled := 0
			for n := int32(0); ; n++ {
				before := runtime.NumGoroutine()
				ctx := &cancelAfter{Context: context.Background(), n: n}
				ch := changesOf(want.Records, from, want.Records, prev.merge == nil)
				ds, _, err := finish(ctx, obs.NewTrace("t"), slices.Clone(want.Records), ch, want.Stats.Unmapped, opts, prev, nil)
				if after := runtime.NumGoroutine(); after > before {
					t.Errorf("Workers=%d, cancelled at check %d: %d goroutines after finish returned, %d before", workers, n, after, before)
				}
				if err == nil {
					if !reflect.DeepEqual(ds.Records, want.Records) || !reflect.DeepEqual(ds.Stats, want.Stats) {
						t.Errorf("Workers=%d: finish over the built records differs from the build", workers)
					}
					break
				}
				if err != context.Canceled {
					t.Fatalf("Workers=%d, cancelled at check %d: err = %v, want context.Canceled", workers, n, err)
				}
				cancelled++
			}
			if cancelled < 4 {
				t.Errorf("Workers=%d: finish checks its context %d times; the test meant to cancel it inside every pass", workers, cancelled)
			}
		}
	}
}

// TestDeltaStringTableSteady alternates two directories a WHOIS edit
// apart — transfers, new delegations, and a registration under a name
// only the second directory holds — through twenty chained deltas. The WHOIS string table is built
// afresh at every merge from what survives it, so it ends where it stood
// after the first round trip — and where a full build of the same
// directory puts it: a long-running -reload-delta daemon's table does
// not grow.
func TestDeltaStringTableSteady(t *testing.T) {
	ctx := context.Background()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	if err := w.WriteDir(dirs[0]); err != nil {
		t.Fatal(err)
	}
	if w, err = w.Evolve(synth.EvolveOptions{Seed: 7, Transfers: 3, NewDelegations: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDir(dirs[1]); err != nil {
		t.Fatal(err)
	}
	arin, err := os.OpenFile(filepath.Join(dirs[1], "whois", "arin.db"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = arin.WriteString("\nNetRange: 198.18.0.0 - 198.19.255.255\nNetType: Allocation\nOrgName: Only In The Second Directory\nUpdated: 2024-01-01\n\n")
	if cerr := arin.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	opts := Options{Incremental: true}
	ds, err := BuildFromDir(ctx, dirs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	full := ds.state.env.whois.Strings()
	afterRoundTrip := 0
	for i := 1; i <= 20; i++ {
		res, err := BuildDelta(ctx, ds, dirs[i%2], opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		ds = res.Dataset
		if i == 2 {
			afterRoundTrip = ds.state.env.whois.Strings()
		}
	}
	if got := ds.state.env.whois.Strings(); got != afterRoundTrip || got != full {
		t.Errorf("string table: %d strings after 20 deltas, %d after the first round trip, %d in a full build", got, afterRoundTrip, full)
	}
}

// TestDeltaNameTableBounded cycles a delta chain through three worlds
// that share almost no names. A name's ID outlives the records that
// named it, so each step leaves the last world's names behind; once
// the dead outnumber the live, the next build starts its finish state
// from empty. The table never holds more than the names of the worlds
// it has just seen, and every step is byte-identical to a full build.
func TestDeltaNameTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a chain of whole-world deltas")
	}
	ctx := context.Background()
	var dirs []string
	for seed := int64(1); seed <= 3; seed++ {
		cfg := synth.SmallConfig()
		cfg.Seed = seed
		dirs = append(dirs, buildWorld(t, cfg))
	}
	opts := Options{Incremental: true}
	ds, err := BuildFromDir(ctx, dirs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	shrank := false
	for i := 1; i <= 7; i++ {
		res, err := BuildDelta(ctx, ds, dirs[i%3], opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		full, err := BuildFromDir(ctx, dirs[i%3], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, res.Dataset), snapshotBytes(t, full)) {
			t.Fatalf("delta %d: differs from a full build", i)
		}
		before, after := ds.state.fin.clean, res.Dataset.state.fin.clean
		if len(after.ownerNames) < len(before.ownerNames) {
			shrank = true
		}
		if len(after.ownerNames) > 4*after.live {
			t.Errorf("delta %d: %d owner names held for %d in use", i, len(after.ownerNames), after.live)
		}
		if m := res.Dataset.state.fin.merge; len(m.keys) > 4*m.res.Keys {
			t.Errorf("delta %d: %d keys held for %d in use", i, len(m.keys), m.res.Keys)
		}
		ds = res.Dataset
	}
	if !shrank {
		t.Error("the name table never shrank: dead names are never dropped")
	}
}
