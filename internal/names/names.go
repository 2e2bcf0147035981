package names

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultThreshold is the corpus-frequency cutoff above which a non-leading
// word is dropped. The paper picked 100 and observed stability in 50–200.
const DefaultThreshold = 100

// Cleaner derives base names from WHOIS organization names. It is
// immutable after construction and safe for concurrent use.
type Cleaner struct {
	threshold int
	freq      map[string]int
}

// The corpus-independent vocabularies, compiled once from the embedded
// lists and never written again.
var (
	suffixSet  = compileSuffixSet()
	geoPhrases = compileGeoPhrases() // sorted longest-first for greedy matching
)

func compileSuffixSet() map[string]bool {
	set := map[string]bool{}
	for _, s := range legalEntitySuffixes {
		toks := tokens(normPunct(s))
		for _, tok := range toks {
			set[tok] = true
		}
		// Multi-word suffixes also register as a joined token ("sdnbhd")
		// since punctuation removal can fuse them.
		if joined := strings.Join(toks, ""); joined != "" {
			set[joined] = true
		}
	}
	return set
}

func compileGeoPhrases() [][]string {
	var phrases [][]string
	for _, g := range append(append([]string{}, countryNames...), cityNames...) {
		phrases = append(phrases, tokens(normPunct(g)))
	}
	sort.Slice(phrases, func(i, j int) bool { return len(phrases[i]) > len(phrases[j]) })
	return phrases
}

func newCleaner(threshold int) *Cleaner {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Cleaner{threshold: threshold, freq: map[string]int{}}
}

// count adds n corpus entries of one name, given its front half, to the
// token frequencies. Construction only: a Cleaner that has been handed
// out is never counted into again.
func (c *Cleaner) count(s Steps, n int) {
	for _, tok := range tokens(s.Spelling) {
		c.freq[tok] += n
	}
}

// NewCleaner builds a Cleaner whose frequent-word list is computed from
// corpus (the full multiset of Direct Owner names in the WHOIS snapshot).
// Each distinct name is processed once and counted with its
// multiplicity. threshold <= 0 selects DefaultThreshold.
func NewCleaner(corpus []string, threshold int) *Cleaner {
	mult := make(map[string]int, len(corpus))
	for _, name := range corpus {
		mult[name]++
	}
	c := newCleaner(threshold)
	for name, n := range mult {
		c.count(front(name), n)
	}
	return c
}

// Corpus is a traced multiset of organization names, indexed by name
// IDs its caller assigns: per ID, how many corpus entries carry the name
// and the pipeline traced over the corpus; for the whole corpus, the
// word frequencies, the frequent-word set and the Table 2 counts. Update
// returns the next Corpus and never writes the one it is called on, so
// a Corpus may be shared by any number of readers and later updates.
// The nil *Corpus is the empty corpus.
//
// A name that loses its last entry keeps its Steps: should it return
// while the frequent-word set stands, it is not traced again.
type Corpus struct {
	refs  []int32  // entries per name ID
	steps []*Steps // per name ID: its pipeline, nil for a name never traced or dropped
	// freq counts each word of a name's Spelling once per entry. The
	// words above the threshold are frequent, and stay sorted in
	// frequent.
	freq     map[string]int
	frequent []string
	names    int // name IDs with entries
	counts   StepCounts
}

// Edit changes the entries of one name ID by N. Name is the name's
// text: it is read only when the ID has no Steps yet.
type Edit struct {
	ID   int32
	N    int32
	Name string
}

// Update returns the corpus with edits applied, at most one per ID and
// in ID order. It traces the names that gain entries with no Steps to
// reuse, front and back; the back half of every other name stays unless
// the frequent-word set — words above threshold — moved, in which case
// it is redone for every name with entries. traced counts the names
// whose back half ran, and moved lists the IDs whose base name changed
// (IDs with entries before and after only).
//
// Both halves are pure per name, so they fan out over up to workers
// goroutines, each taking a fixed chunk of the IDs to trace; the word
// counts are summed on the caller's goroutine in ID order. The result
// is the same at every worker count.
func (c *Corpus) Update(edits []Edit, threshold, workers int) (next *Corpus, traced int, moved []int32) {
	if c == nil {
		c = &Corpus{}
	}
	size := len(c.refs)
	for _, e := range edits {
		size = max(size, int(e.ID)+1)
	}
	next = &Corpus{
		refs:     make([]int32, size),
		steps:    make([]*Steps, size),
		freq:     c.freq,
		frequent: c.frequent,
		names:    c.names,
		counts:   c.counts,
	}
	copy(next.refs, c.refs)
	copy(next.steps, c.steps)
	liveMoved := false
	var born []Edit // names to trace from the front
	for _, e := range edits {
		was := next.refs[e.ID]
		next.refs[e.ID] += e.N
		if (was > 0) != (next.refs[e.ID] > 0) {
			liveMoved = true
			if was == 0 {
				next.names++
			} else {
				next.names--
			}
		}
		if next.refs[e.ID] > 0 && next.steps[e.ID] == nil {
			born = append(born, e)
		}
	}
	fronts := make([]Steps, len(born))
	chunks(len(born), workers, func(i int) { fronts[i] = front(born[i].Name) })
	for i, e := range born {
		next.steps[e.ID] = &fronts[i]
	}

	// The word counts follow the entries: every edit adds or takes its
	// name's words N times, in a copy of the previous counts.
	copied := false
	for _, e := range edits {
		if e.N == 0 {
			continue
		}
		if !copied {
			next.freq, copied = make(map[string]int, len(c.freq)), true
			maps.Copy(next.freq, c.freq)
		}
		for _, tok := range tokens(next.steps[e.ID].Spelling) {
			if next.freq[tok] += int(e.N); next.freq[tok] == 0 {
				delete(next.freq, tok)
			}
		}
	}
	cl := &Cleaner{threshold: threshold, freq: next.freq}
	if frequent := cl.frequentWords(); !slices.Equal(frequent, c.frequent) {
		// The back half of every name read the old set: redo it for the
		// names with entries, and drop the Steps of the rest.
		next.frequent = frequent
		var redo []int32
		for id, s := range next.steps {
			if s == nil {
				continue
			}
			if next.refs[id] == 0 {
				next.steps[id] = nil
				continue
			}
			redo = append(redo, int32(id))
		}
		backs := make([]Steps, len(redo))
		chunks(len(redo), workers, func(i int) { backs[i] = cl.finish(*next.steps[redo[i]]) })
		for i, id := range redo {
			if old := c.Steps(id); old != nil && old.Result() != backs[i].Result() {
				moved = append(moved, id)
			}
			next.steps[id] = &backs[i]
		}
		traced, liveMoved = len(redo), true
	} else {
		chunks(len(born), workers, func(i int) { fronts[i] = cl.finish(fronts[i]) })
		traced = len(born)
	}
	if liveMoved {
		next.counts = countSteps(next.steps, next.refs)
	}
	next.counts.Original = next.names
	return next, traced, moved
}

// Steps returns the pipeline of a name ID with entries, nil for any
// other ID. Callers must not modify it.
func (c *Corpus) Steps(id int32) *Steps {
	if c == nil || int(id) >= len(c.refs) || c.refs[id] == 0 {
		return nil
	}
	return c.steps[id]
}

// Counts returns the Table 2 counts of the corpus.
func (c *Corpus) Counts() StepCounts {
	if c == nil {
		return StepCounts{}
	}
	return c.counts
}

// frequentWords returns the words counted above the threshold, sorted.
func (c *Cleaner) frequentWords() []string {
	var out []string
	for w, n := range c.freq {
		if n > c.threshold {
			out = append(out, w)
		}
	}
	slices.Sort(out)
	return out
}

// chunks runs fn(0) … fn(n-1), cut into one fixed chunk of consecutive
// indices per worker, on up to workers goroutines.
func chunks(n, workers int, fn func(i int)) {
	k := max(1, min(workers, n))
	parallel(k, workers, func(j int) {
		for i := j * n / k; i < (j+1)*n/k; i++ {
			fn(i)
		}
	})
}

// parallel runs task(0) … task(n-1) on up to workers goroutines, the
// caller's among them, that claim them in order, and returns when all
// are done. With workers <= 1 the caller runs them all.
func parallel(n, workers int, task func(k int)) {
	var next atomic.Int64
	run := func() {
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			task(k)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// BaseName runs the full pipeline on one organization name.
func (c *Cleaner) BaseName(name string) string {
	return c.Trace(name).Result()
}

// Steps records every intermediate form of the pipeline, in the order of
// the paper's Table 2.
type Steps struct {
	Original   string
	Basic      string // lower-case, whitespace-collapsed
	Regex      string // punctuation/noise/mojibake scrubbed
	Spelling   string // standardized spellings (not a Table 2 row)
	Corporate  string // legal-entity endings dropped
	Frequent   string // corpus-frequent words dropped
	Geographic string // countries/cities dropped
	Refilled   string // final base name after the short-name rule
}

// Result returns the final base name.
func (s Steps) Result() string { return s.Refilled }

// Trace runs the pipeline, keeping each intermediate form.
func (c *Cleaner) Trace(name string) Steps {
	return c.finish(front(name))
}

// front runs the corpus-independent front half of the pipeline — Basic
// through Corporate — which depends on the name and the embedded
// vocabularies only.
func front(name string) Steps {
	s := Steps{Original: name}
	s.Basic = same(name, basic(name))
	s.Regex = same(s.Basic, regexDrop(s.Basic))
	s.Spelling = same(s.Regex, standardize(s.Regex))
	s.Corporate = same(s.Spelling, dropTokens(s.Spelling, func(tok string) bool { return suffixSet[tok] }))
	return s
}

// same returns in when out spells the same: a step that changes nothing
// shares its input's bytes, so a traced name holds only the forms that
// differ.
func same(in, out string) string {
	if out == in {
		return in
	}
	return out
}

// finish runs the corpus-dependent back half over a front half: the
// frequent-word drop, the geographic drop and the short-name refill.
func (c *Cleaner) finish(s Steps) Steps {
	s.Frequent = same(s.Corporate, dropTokens(s.Corporate, func(tok string) bool { return c.freq[tok] > c.threshold }))
	s.Geographic = same(s.Frequent, dropGeo(s.Frequent))
	// Short names provide insufficient information: fall back to the
	// post-corporate-drop form (§5.3.1 final rule).
	if len([]rune(s.Geographic)) < 3 {
		s.Refilled = s.Corporate
	} else {
		s.Refilled = s.Geographic
	}
	return s
}

// basic is the paper's footnote-4 "basic string processing": lower case
// and whitespace collapsing.
func basic(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// translit maps common accented runes to ASCII so that "Telefónica" and
// "Telefonica" agree; unmapped non-ASCII is dropped by normPunct (the
// "incorrect encoding" cleanup).
var translit = map[rune]rune{
	'á': 'a', 'à': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a',
	'é': 'e', 'è': 'e', 'ê': 'e', 'ë': 'e',
	'í': 'i', 'ì': 'i', 'î': 'i', 'ï': 'i',
	'ó': 'o', 'ò': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o', 'ø': 'o',
	'ú': 'u', 'ù': 'u', 'û': 'u', 'ü': 'u',
	'ñ': 'n', 'ç': 'c', 'ý': 'y', 'ß': 's', 'æ': 'a', 'œ': 'o',
}

// normPunct deletes periods and apostrophes (so "S.A." fuses to "sa"),
// replaces other punctuation with spaces, transliterates accents, drops
// remaining non-ASCII, and collapses whitespace.
func normPunct(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if t, ok := translit[r]; ok {
			r = t
		}
		switch {
		case r == '.' || r == '\'' || r == '’':
			// delete
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// regexDrop scrubs noise phrases, punctuation, mojibake, and
// street-address-like trailing numerics.
func regexDrop(s string) string {
	for _, phrase := range noisePhrases {
		s = strings.ReplaceAll(s, phrase, " ")
	}
	s = normPunct(s)
	// Drop pure-numeric tokens (street numbers, ticket ids) unless the
	// whole name is numeric.
	toks := tokens(s)
	var kept []string
	for _, t := range toks {
		if isNumeric(t) {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		return s
	}
	return strings.Join(kept, " ")
}

func isNumeric(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// standardize rewrites known spelling variants token-wise.
func standardize(s string) string {
	toks := tokens(s)
	for i, t := range toks {
		if std, ok := spellingVariants[t]; ok {
			toks[i] = std
		}
	}
	return strings.Join(toks, " ")
}

// dropTokens removes every token matching pred except the first token of
// the name — the paper's "when they do not appear as the first word".
func dropTokens(s string, pred func(string) bool) string {
	toks := tokens(s)
	if len(toks) == 0 {
		return s
	}
	kept := toks[:1]
	for _, t := range toks[1:] {
		if pred(t) {
			continue
		}
		kept = append(kept, t)
	}
	return strings.Join(kept, " ")
}

// dropGeo removes geographic phrases (longest-first) that do not start
// the name.
func dropGeo(s string) string {
	toks := tokens(s)
	if len(toks) == 0 {
		return s
	}
	kept := []string{toks[0]}
	i := 1
outer:
	for i < len(toks) {
		for _, phrase := range geoPhrases {
			if matchAt(toks, i, phrase) {
				i += len(phrase)
				continue outer
			}
		}
		kept = append(kept, toks[i])
		i++
	}
	return strings.Join(kept, " ")
}

func matchAt(toks []string, i int, phrase []string) bool {
	if i+len(phrase) > len(toks) {
		return false
	}
	for j, p := range phrase {
		if toks[i+j] != p {
			return false
		}
	}
	return true
}

func tokens(s string) []string { return strings.Fields(s) }

// StepCounts is the Table 2 measurement: the number of distinct names in
// a corpus after each progressive step.
type StepCounts struct {
	Original   int
	Basic      int
	Regex      int
	Corporate  int
	Frequent   int
	Geographic int
	Refilled   int
}

// countSteps computes Table 2 over the names with entries: a step count
// is the number of distinct values after that step, so duplicate corpus
// entries cannot change it. One map notes, per distinct value, the steps
// it appeared after; the steps that left a name as they found it share
// one update. Original is the caller's to fill.
func countSteps(steps []*Steps, refs []int32) StepCounts {
	seen := make(map[string]uint8, len(steps))
	for id, s := range steps {
		if refs[id] == 0 {
			continue
		}
		vals := [...]string{s.Basic, s.Regex, s.Corporate, s.Frequent, s.Geographic, s.Refilled}
		for k := 0; k < len(vals); {
			bits := uint8(1) << k
			j := k + 1
			for ; j < len(vals) && vals[j] == vals[k]; j++ {
				bits |= 1 << j
			}
			seen[vals[k]] |= bits
			k = j
		}
	}
	var counts [6]int
	for _, bits := range seen {
		for k := range counts {
			counts[k] += int(bits >> k & 1)
		}
	}
	return StepCounts{
		Basic:      counts[0],
		Regex:      counts[1],
		Corporate:  counts[2],
		Frequent:   counts[3],
		Geographic: counts[4],
		Refilled:   counts[5],
	}
}
