// Package names implements Prefix2Org's rule-based organization-name
// cleaning (§5.3.1 of the paper).
//
// Direct Owners register address space under many variations of their
// name ("Google LLC", "Google Cloud", "GOOGLE INDIA PVT LTD"). The paper
// found character-level fuzzy matching and generic entity resolution
// inadequate and instead iteratively designed a four-step rule pipeline,
// reproduced here:
//
//	(i)   initial cleaning and formatting — case folding, punctuation and
//	      mojibake scrubbing, removal of generic remark phrases;
//	(ii)  spelling standardization — "Centre"→"Center",
//	      "Telecommunications"→"Telecom", ...;
//	(iii) corporate + frequent word drop — legal-entity endings (from the
//	      worldwide legal-entity list) and words whose corpus frequency
//	      exceeds a threshold (100 in the paper) are removed when they are
//	      not the first word;
//	(iv)  geographic filtering — ISO-3166 country names, million-inhabitant
//	      cities and hand-added endonyms are removed when not leading.
//
// Finally, a processed name shorter than three characters is refilled
// with the form from after the corporate-word drop, since very short
// base names cause false associations.
//
// Two distinct organizations may legitimately share a base name (Fastly,
// Inc. vs Fastly Network Solution); disambiguation is the clustering
// stage's job, not this package's.
//
// # Goroutine safety
//
// A Cleaner is immutable once its constructor returns: the corpus
// frequency table is counted eagerly — once per distinct corpus name,
// weighted by how many corpus entries carry it — and never written
// again, and the suffix set and geographic phrase list are package data
// compiled at init. BaseName and Trace may therefore be called
// concurrently.
//
// Corpus is the pipeline's entry point for a corpus: a traced multiset
// of names under caller-assigned IDs, from which both the base names and
// the Table 2 counts are read. Corpus.Update applies a change of
// multiplicities and returns a new Corpus, never writing the old one.
// The front half of the pipeline (Basic through Corporate) does not
// depend on the corpus, and the back half only through the frequent-word
// set: a name traced before keeps its Steps while that set stands, so an
// update traces only the names it has not seen, and redoes every back
// half only when the set moved. Both halves are pure per name and fan
// out over fixed chunks of the names to trace; the results do not depend
// on the worker count.
package names
