package names

import (
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

// TraceCorpus runs the pipeline once per distinct name of a corpus given
// as name -> multiplicity (how many corpus entries carry the name), and
// returns each name's Steps: the one pass behind both the base names and
// CountSteps. The frequent-word list is the same one NewCleaner computes
// from the expanded multiset. prev may hold the result for an earlier
// corpus: the front half of the pipeline (Basic through Corporate) is a
// pure function of the name, so it is taken from there for every name
// prev has, and only the corpus-dependent back half is redone.
//
// Both halves are pure per name, so they fan out over up to workers
// goroutines: the distinct names, sorted, are cut into one fixed chunk
// per worker, each chunk counts its token frequencies into a map of its
// own, and the sums of those maps are the corpus frequencies. The
// result is the same at every worker count; workers <= 1 runs on the
// caller's goroutine.
func TraceCorpus(mult map[string]int, threshold int, prev map[string]Steps, workers int) map[string]Steps {
	type named struct {
		name string
		n    int
	}
	distinct := make([]named, 0, len(mult))
	for name, n := range mult {
		distinct = append(distinct, named{name, n})
	}
	slices.SortFunc(distinct, func(a, b named) int { return strings.Compare(a.name, b.name) })
	steps := make([]Steps, len(distinct))
	chunks := max(1, min(workers, len(distinct)))
	bounds := make([]int, chunks+1) // chunk k is distinct[bounds[k]:bounds[k+1]]
	for k := range bounds {
		bounds[k] = k * len(distinct) / chunks
	}
	freqs := make([]map[string]int, chunks)
	parallel(chunks, workers, func(k int) {
		freq := map[string]int{}
		for i := bounds[k]; i < bounds[k+1]; i++ {
			s, ok := prev[distinct[i].name]
			if !ok {
				s = front(distinct[i].name)
			}
			for _, tok := range tokens(s.Spelling) {
				freq[tok] += distinct[i].n
			}
			steps[i] = s
		}
		freqs[k] = freq
	})
	c := newCleaner(threshold)
	c.freq = freqs[0]
	for _, freq := range freqs[1:] {
		for tok, n := range freq {
			c.freq[tok] += n
		}
	}
	parallel(chunks, workers, func(k int) {
		for i := bounds[k]; i < bounds[k+1]; i++ {
			steps[i] = c.finish(steps[i])
		}
	})
	traced := make(map[string]Steps, len(distinct))
	for i := range distinct {
		traced[distinct[i].name] = steps[i]
	}
	return traced
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
	s.Basic = basic(name)
	s.Regex = regexDrop(s.Basic)
	s.Spelling = standardize(s.Regex)
	s.Corporate = dropTokens(s.Spelling, func(tok string) bool { return suffixSet[tok] })
	return s
}

// finish runs the corpus-dependent back half over a front half: the
// frequent-word drop, the geographic drop and the short-name refill.
func (c *Cleaner) finish(s Steps) Steps {
	s.Frequent = dropTokens(s.Corporate, func(tok string) bool { return c.freq[tok] > c.threshold })
	s.Geographic = dropGeo(s.Frequent)
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

// CountSteps computes Table 2 from the traced pipeline of a corpus's
// distinct names (TraceCorpus): a step count is the number of distinct
// values after that step, so duplicate corpus entries cannot change it.
// The six counts are independent, and run on up to workers goroutines.
func CountSteps(traced map[string]Steps, workers int) StepCounts {
	steps := []func(Steps) string{
		func(s Steps) string { return s.Basic },
		func(s Steps) string { return s.Regex },
		func(s Steps) string { return s.Corporate },
		func(s Steps) string { return s.Frequent },
		func(s Steps) string { return s.Geographic },
		func(s Steps) string { return s.Refilled },
	}
	counts := make([]int, len(steps))
	parallel(len(steps), workers, func(k int) {
		seen := make(map[string]bool, len(traced))
		for _, s := range traced {
			seen[steps[k](s)] = true
		}
		counts[k] = len(seen)
	})
	return StepCounts{
		Original:   len(traced),
		Basic:      counts[0],
		Regex:      counts[1],
		Corporate:  counts[2],
		Frequent:   counts[3],
		Geographic: counts[4],
		Refilled:   counts[5],
	}
}
