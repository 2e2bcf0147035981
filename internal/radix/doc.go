// Package radix implements a compressed binary radix (patricia) tree keyed
// by IP prefixes.
//
// It is the test oracle, not a production structure. The pipeline's IP
// delegation trees (§5.2 of the paper) and the RPKI repository's
// certificate-cover and ROA indexes were once built on it; they now sit
// on the frozen internal/lpm index, and this package stays in the tree,
// unchanged, as the independent reference implementation that lpm's and
// rpki's property tests compare against: insert the same prefixes here,
// ask both the same longest-match, covering-chain and covered-range
// questions, demand the same answers. Only tests may import it — the
// layering rule of p2o-lint rejects any other import.
//
// A single Tree transparently holds both IPv4 and IPv6 prefixes; the two
// families live under separate roots and never interact. The zero value is
// not ready to use; call New.
//
// # Goroutine safety
//
// A Tree is not safe for concurrent mutation, and readers must not
// overlap with writers. Once building is done, any number of goroutines
// may call the read-only methods (Get, CoveringChain, LongestMatch,
// Walk, WalkCovered, Entries, Len) concurrently: they touch no shared
// mutable state.
package radix
