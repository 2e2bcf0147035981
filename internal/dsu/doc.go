// Package dsu provides a disjoint-set union (union-find) structure over
// dense integer keys, with path compression and union by size.
//
// It backs both the ASN-cluster construction (sibling ASNs collapse into
// one cluster, keyed by position in the sorted ASN list) and the final
// prefix-cluster merge of §5.3.3, where WHOIS name clusters (keyed by
// interned owner ID) sharing membership in an RPKI or ASN prefix group
// are united into connected components.
//
// # Goroutine safety
//
// A DSU is never safe for concurrent use — not even for reads: Find
// performs path compression, so every method mutates the structure.
// Callers that need a concurrently-readable view must freeze the
// partition into plain maps once building is done, the way
// as2org.BuildClusters does before the relation is handed to the
// pipeline's parallel resolve workers.
package dsu
