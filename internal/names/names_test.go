package names

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// corpus with repeated filler words so the frequency step has work to do
// at a low threshold.
func testCleaner(t *testing.T) *Cleaner {
	t.Helper()
	var corpus []string
	for i := 0; i < 30; i++ {
		corpus = append(corpus,
			fmt.Sprintf("Org%d Data Customers Services", i),
			fmt.Sprintf("The Provider%d Data Network", i),
		)
	}
	corpus = append(corpus,
		"Google LLC", "Google Cloud", "GOOGLE INDIA PVT LTD",
		"Verizon Business", "Verizon Japan Ltd", "Verizon Asia Pte Ltd",
		"Fastly, Inc.", "Fastly Network Solution Company",
		"Telefonica del Peru S.A.A.", "Telefonica Chile SA",
	)
	return NewCleaner(corpus, 25)
}

func TestBaseNameVariantsCollapse(t *testing.T) {
	c := testCleaner(t)
	cases := []struct{ a, b string }{
		{"Google LLC", "Google, L.L.C."},
		{"Verizon Japan Ltd", "Verizon Japan K.K."},
		{"Verizon Business", "VERIZON  BUSINESS"},
		{"Telefonica del Peru S.A.A.", "Telefónica del Peru"},
	}
	for _, cs := range cases {
		ba, bb := c.BaseName(cs.a), c.BaseName(cs.b)
		if ba != bb {
			t.Errorf("BaseName(%q)=%q != BaseName(%q)=%q", cs.a, ba, cs.b, bb)
		}
	}
}

func TestBaseNameSpecificCases(t *testing.T) {
	c := testCleaner(t)
	cases := []struct{ in, want string }{
		{"Google LLC", "google"},
		{"Fastly, Inc.", "fastly"},
		{"Fastly Network Solution Company", "fastly solutions"}, // "network" frequent, "company" corporate
		{"Verizon Japan Ltd", "verizon"},                        // Japan is geographic, Ltd corporate
		{"Verizon Business", "verizon business"},
		{"Amazon Deutschland GmbH", "amazon"}, // endonym + corporate
	}
	for _, cs := range cases {
		if got := c.BaseName(cs.in); got != cs.want {
			t.Errorf("BaseName(%q) = %q, want %q", cs.in, got, cs.want)
		}
	}
}

// First-word protection: a legal/geo/frequent word leading the name stays.
func TestFirstWordNeverDropped(t *testing.T) {
	c := testCleaner(t)
	if got := c.BaseName("China Telecom"); !strings.HasPrefix(got, "china") {
		t.Errorf("leading country dropped: %q", got)
	}
	if got := c.BaseName("Data Communications Ltd"); !strings.HasPrefix(got, "data") {
		t.Errorf("leading frequent word dropped: %q", got)
	}
	if got := c.BaseName("Ltd Brokers"); !strings.HasPrefix(got, "ltd") {
		t.Errorf("leading corporate word dropped: %q", got)
	}
}

func TestNoisePhraseScrubbed(t *testing.T) {
	c := testCleaner(t)
	got := c.BaseName("IP pool reserved for Acme Holdings")
	if !strings.Contains(got, "acme") || strings.Contains(got, "pool") {
		t.Errorf("noise phrase survived: %q", got)
	}
}

func TestStreetAddressNumbersDropped(t *testing.T) {
	c := testCleaner(t)
	got := c.BaseName("Acme Widgets 1250")
	if strings.Contains(got, "1250") {
		t.Errorf("street number survived: %q", got)
	}
}

func TestSpellingStandardization(t *testing.T) {
	c := testCleaner(t)
	a := c.BaseName("Nordic Telecommunication Centre")
	b := c.BaseName("Nordic Telecom Center")
	if a != b {
		t.Errorf("spelling variants disagree: %q vs %q", a, b)
	}
}

func TestShortNameRefill(t *testing.T) {
	c := testCleaner(t)
	// "BT Japan" would clean to "bt" (2 chars) after geo drop; the refill
	// rule reverts to the post-corporate form which retains "japan".
	got := c.BaseName("BT Japan")
	if got != "bt japan" {
		t.Errorf("refill = %q, want %q", got, "bt japan")
	}
}

func TestMojibakeAndUnicode(t *testing.T) {
	c := testCleaner(t)
	got := c.BaseName("Telefónica Móviles")
	if got != c.BaseName("Telefonica Moviles") {
		t.Errorf("translit mismatch: %q", got)
	}
	// Non-ASCII garbage does not crash and produces something stable.
	if a, b := c.BaseName("日本Acme株式会社"), c.BaseName("日本Acme株式会社"); a != b {
		t.Error("non-deterministic on unicode input")
	}
}

func TestIdempotent(t *testing.T) {
	c := testCleaner(t)
	inputs := []string{
		"Google LLC", "Verizon Japan Ltd", "Fastly, Inc.",
		"Telefonica del Peru S.A.A.", "IP pool reserved for Acme GmbH",
		"The Provider1 Data Network",
	}
	for _, in := range inputs {
		once := c.BaseName(in)
		twice := c.BaseName(once)
		if once != twice {
			t.Errorf("not idempotent on %q: %q -> %q", in, once, twice)
		}
	}
}

// Property: cleaning never yields an empty base name for inputs that
// contain at least one alphanumeric ASCII token.
func TestNonEmptyProperty(t *testing.T) {
	c := testCleaner(t)
	f := func(raw string) bool {
		name := "x" + raw // guarantee one alnum token start
		return c.BaseName(name) != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: output contains no uppercase and no double spaces.
func TestOutputNormalizedProperty(t *testing.T) {
	c := testCleaner(t)
	f := func(raw string) bool {
		out := c.BaseName(raw)
		return out == strings.ToLower(out) && !strings.Contains(out, "  ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func multiset(corpus []string) map[string]int {
	mult := map[string]int{}
	for _, n := range corpus {
		mult[n]++
	}
	return mult
}

// corpusIDs numbers the names of a corpus in sorted order, the way a
// caller of Corpus.Update assigns its IDs.
type corpusIDs map[string]int32

func (ids corpusIDs) id(name string) int32 {
	id, ok := ids[name]
	if !ok {
		id = int32(len(ids))
		ids[name] = id
	}
	return id
}

// edits turns a change of multiplicities (name -> entries added, less
// entries removed) into Update's edits, in ID order.
func (ids corpusIDs) edits(delta map[string]int) []Edit {
	var names []string
	for name := range delta {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []Edit
	for _, name := range names {
		out = append(out, Edit{ID: ids.id(name), N: int32(delta[name]), Name: name})
	}
	slices.SortFunc(out, func(a, b Edit) int { return int(a.ID) - int(b.ID) })
	return out
}

// traced reads every name with entries back out of c.
func (ids corpusIDs) traced(c *Corpus) map[string]Steps {
	out := map[string]Steps{}
	for name, id := range ids {
		if s := c.Steps(id); s != nil {
			out[name] = *s
		}
	}
	return out
}

// traceCorpus traces a corpus given as name -> multiplicity from the
// empty corpus.
func traceCorpus(mult map[string]int, threshold, workers int) (map[string]Steps, StepCounts) {
	ids := corpusIDs{}
	c, _, _ := (*Corpus)(nil).Update(ids.edits(mult), threshold, workers)
	return ids.traced(c), c.Counts()
}

// TestWeightedCountMatchesPerEntry guards the once-per-distinct-name
// pass: "network(s)" is in three distinct names but forty corpus entries, so
// it crosses the threshold only through multiplicity. Base names and
// step counts must equal a reference that walks every corpus entry, the
// way the frequency table used to be built.
func TestWeightedCountMatchesPerEntry(t *testing.T) {
	var corpus []string
	for i := 0; i < 30; i++ {
		corpus = append(corpus, "Acme Networks Germany GmbH")
	}
	for i := 0; i < 10; i++ {
		corpus = append(corpus, "Zenith Networks Ltd")
	}
	corpus = append(corpus, "Acme Holdings", "Solo Systems Inc", "Zenith  NETWORKS ltd.")
	const threshold = 35

	ref := newCleaner(threshold)
	for _, name := range corpus {
		for _, tok := range tokens(standardize(regexDrop(basic(name)))) {
			ref.freq[tok]++
		}
	}
	if n := ref.freq["network"]; n != 41 {
		t.Fatalf("reference freq[network] = %d, want 41 (above the threshold only by multiplicity)", n)
	}
	refTraced := map[string]Steps{}
	for _, name := range corpus {
		refTraced[name] = ref.Trace(name)
	}

	ids := corpusIDs{}
	corp, traced, _ := (*Corpus)(nil).Update(ids.edits(multiset(corpus)), threshold, 1)
	got := ids.traced(corp)
	c := NewCleaner(corpus, threshold)
	if len(got) != len(refTraced) || traced != len(refTraced) {
		t.Fatalf("traced %d (%d read back) distinct names, want %d", traced, len(got), len(refTraced))
	}
	for name, want := range refTraced {
		if got := got[name]; got != want {
			t.Errorf("Corpus.Steps(%q) = %+v, want %+v", name, got, want)
		}
		if got := c.BaseName(name); got != want.Result() {
			t.Errorf("NewCleaner(...).BaseName(%q) = %q, want %q", name, got, want.Result())
		}
	}
	if got := got["Acme Networks Germany GmbH"].Result(); got != "acme" {
		t.Errorf("base name = %q, want %q (network frequent, germany geographic, gmbh corporate)", got, "acme")
	}
	if got, want := corp.Counts(), countStepsReference(refTraced); got != want {
		t.Errorf("Counts = %+v, want %+v", got, want)
	}

	// Dropping the duplicates moves the frequent-word set: "network" is
	// no longer frequent, so every remaining name's back half is redone,
	// and the two whose base name changes are the ones listed as moved.
	drop := map[string]int{"Acme Networks Germany GmbH": -29, "Zenith Networks Ltd": -9, "Acme Holdings": -1, "Solo Systems Inc": -1, "Zenith  NETWORKS ltd.": -1}
	again, traced, moved := corp.Update(ids.edits(drop), threshold, 1)
	if got := again.Steps(ids["Acme Networks Germany GmbH"]).Result(); got != "acme network" {
		t.Errorf("base name over the smaller corpus = %q, want %q", got, "acme network")
	}
	if again.Counts().Original != 2 || traced != 2 || len(moved) != 2 {
		t.Errorf("smaller corpus: %d names, %d traced, moved %v; want 2, 2 and both names", again.Counts().Original, traced, moved)
	}
	if corp.Steps(ids["Acme Networks Germany GmbH"]).Result() != "acme" || corp.Counts().Original != 5 {
		t.Error("Update wrote the corpus it was called on")
	}
}

// TestCorpusUpdateMatchesFromEmpty is the incremental contract: a chain
// of random edits, applied one Update at a time, traces every name and
// counts Table 2 as a single Update from the empty corpus over the same
// multiset does — and retraces only the names it must.
func TestCorpusUpdateMatchesFromEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []string{"acme", "data", "networks", "Germany", "GmbH", "LLC", "zenith", "telecom", "de", "Perú", "solo", "Inc."}
	var pool []string
	for range 60 {
		var b strings.Builder
		for k := range 1 + rng.Intn(4) {
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		pool = append(pool, b.String())
	}
	ids := corpusIDs{}
	mult := map[string]int{}
	var c *Corpus
	reused := 0
	for step := range 200 {
		delta := map[string]int{}
		for range 1 + rng.Intn(4) {
			name := pool[rng.Intn(len(pool))]
			n := 1 + rng.Intn(6)
			if mult[name]+delta[name] > 0 && rng.Intn(2) == 0 {
				n = -min(n, mult[name]+delta[name])
			}
			delta[name] += n
		}
		var traced int
		c, traced, _ = c.Update(ids.edits(delta), 12, 1+step%3)
		for name, n := range delta {
			if mult[name] += n; mult[name] == 0 {
				delete(mult, name)
			}
		}
		wantTraced, wantCounts := traceCorpus(mult, 12, 1)
		if got := ids.traced(c); !reflect.DeepEqual(got, wantTraced) {
			t.Fatalf("step %d: the updated corpus traces differently from one traced from empty", step)
		}
		if got := c.Counts(); got != wantCounts {
			t.Fatalf("step %d: Counts = %+v, want %+v", step, got, wantCounts)
		}
		if traced < len(mult) {
			reused++
		}
	}
	if reused == 0 {
		t.Error("every update retraced the whole corpus")
	}
}

// TestTraceCorpusWorkers holds the fan-out of Corpus.Update and its
// Table 2 count to their serial result: at 1, 2 and 8 workers the traced
// corpus is DeepEqual and the counts equal — over the synthetic world's
// registered names, over random corpora, and as an update of a corpus
// that already traced some of the names. make verify runs it under
// -race.
func TestTraceCorpusWorkers(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	world := map[string]int{}
	for i, o := range w.Orgs {
		for j, name := range o.LegalNames {
			world[name] += 1 + (i+j)%7
		}
	}
	rng := rand.New(rand.NewSource(1))
	words := []string{"acme", "data", "networks", "Germany", "GmbH", "LLC", "S.A.", "telecom", "de", "Perú", "1st", "the", "Inc."}
	random := func() map[string]int {
		mult := map[string]int{}
		for range 200 + rng.Intn(300) {
			var b strings.Builder
			for k := range 1 + rng.Intn(5) {
				if k > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[rng.Intn(len(words))])
			}
			mult[b.String()] += 1 + rng.Intn(40)
		}
		return mult
	}
	corpora := []map[string]int{world, random(), random(), random(), {}}
	for ci, mult := range corpora {
		// prev holds a third of the corpus's names, traced over another
		// corpus: the update keeps or redoes their back halves.
		ids := corpusIDs{}
		third := random()
		n := 0
		for name := range mult {
			if n%3 == 0 {
				third[name]++
			}
			n++
		}
		prev, _, _ := (*Corpus)(nil).Update(ids.edits(third), 20, 1)
		delta := map[string]int{}
		for name, n := range third {
			delta[name] -= n
		}
		for name, n := range mult {
			delta[name] += n
		}
		for _, p := range []*Corpus{nil, prev} {
			edits := ids.edits(delta)
			if p == nil {
				edits = ids.edits(mult)
			}
			want, _, _ := p.Update(edits, 20, 1)
			wantSteps := countStepsReference(ids.traced(want))
			for _, workers := range []int{1, 2, 8} {
				got, _, _ := p.Update(edits, 20, workers)
				if !reflect.DeepEqual(ids.traced(got), ids.traced(want)) {
					t.Errorf("corpus %d (prev %v): Update at %d workers differs from 1", ci, p != nil, workers)
				}
				if s := got.Counts(); s != wantSteps {
					t.Errorf("corpus %d (prev %v): Counts at %d workers = %+v, want %+v", ci, p != nil, workers, s, wantSteps)
				}
			}
		}
	}
}

// countStepsReference is the Table 2 count written out: one
// distinct-value count per step, in one pass.
func countStepsReference(traced map[string]Steps) StepCounts {
	var seen [6]map[string]bool
	for k := range seen {
		seen[k] = map[string]bool{}
	}
	for _, s := range traced {
		for k, v := range []string{s.Basic, s.Regex, s.Corporate, s.Frequent, s.Geographic, s.Refilled} {
			seen[k][v] = true
		}
	}
	return StepCounts{len(traced), len(seen[0]), len(seen[1]), len(seen[2]), len(seen[3]), len(seen[4]), len(seen[5])}
}

func TestCountStepsMonotonic(t *testing.T) {
	var corpus []string
	for i := 0; i < 40; i++ {
		corpus = append(corpus, fmt.Sprintf("Org %03d Data Services LLC", i))
		corpus = append(corpus, fmt.Sprintf("Org %03d Data Services Inc", i))
		corpus = append(corpus, fmt.Sprintf("Org %03d Germany GmbH", i))
	}
	_, sc := traceCorpus(multiset(corpus), 30, 1)
	if sc.Original != len(corpus) {
		t.Errorf("Original = %d, want %d", sc.Original, len(corpus))
	}
	// Each cleaning step can only merge names, never split them.
	if sc.Basic > sc.Original || sc.Regex > sc.Basic || sc.Corporate > sc.Regex ||
		sc.Frequent > sc.Corporate || sc.Geographic > sc.Frequent {
		t.Errorf("step counts not monotone: %+v", sc)
	}
	// Refill can only increase the count relative to Geographic (it
	// re-splits short collisions).
	if sc.Refilled < sc.Geographic {
		t.Errorf("refill decreased uniqueness: %+v", sc)
	}
	// The corpus is built so real aggregation happens.
	if sc.Refilled >= sc.Original {
		t.Errorf("no aggregation at all: %+v", sc)
	}
}

func TestTraceStages(t *testing.T) {
	c := testCleaner(t)
	s := c.Trace("Verizon Japan Ltd.")
	if s.Original != "Verizon Japan Ltd." {
		t.Error("original not preserved")
	}
	if s.Basic != "verizon japan ltd." {
		t.Errorf("basic = %q", s.Basic)
	}
	if s.Regex != "verizon japan ltd" {
		t.Errorf("regex = %q", s.Regex)
	}
	if s.Corporate != "verizon japan" {
		t.Errorf("corporate = %q", s.Corporate)
	}
	if s.Geographic != "verizon" {
		t.Errorf("geographic = %q", s.Geographic)
	}
	if s.Result() != "verizon" {
		t.Errorf("result = %q", s.Result())
	}
}

func TestDefaultThreshold(t *testing.T) {
	c := NewCleaner([]string{"A B"}, 0)
	if c.threshold != DefaultThreshold {
		t.Errorf("threshold = %d", c.threshold)
	}
}

func TestEmptyInput(t *testing.T) {
	c := testCleaner(t)
	if got := c.BaseName(""); got != "" {
		t.Errorf("BaseName(\"\") = %q", got)
	}
}

// Vocabulary integrity: every embedded list entry is non-empty, lower
// case, and survives normalization.
func TestVocabularyIntegrity(t *testing.T) {
	check := func(list []string, label string) {
		seen := map[string]bool{}
		for _, v := range list {
			if v == "" {
				t.Errorf("%s: empty entry", label)
			}
			if v != strings.ToLower(v) {
				t.Errorf("%s: %q not lower case", label, v)
			}
			if seen[v] {
				t.Errorf("%s: duplicate entry %q", label, v)
			}
			seen[v] = true
		}
	}
	check(legalEntitySuffixes, "legalEntitySuffixes")
	check(countryNames, "countryNames")
	check(cityNames, "cityNames")
	check(noisePhrases, "noisePhrases")
	for k, v := range spellingVariants {
		if k == v {
			t.Errorf("spellingVariants: identity mapping %q", k)
		}
		if strings.ContainsAny(k, " ") || strings.ContainsAny(v, " ") {
			t.Errorf("spellingVariants: multi-word entry %q->%q", k, v)
		}
	}
	// Standardization must reach a fixpoint in one application for every
	// mapped value (no chains like tech->technology->technologies).
	for _, v := range spellingVariants {
		if next, ok := spellingVariants[v]; ok {
			t.Errorf("spelling chain: %q -> %q", v, next)
		}
	}
}
