// Package cluster implements Prefix2Org's prefix aggregation (§5.3.2 and
// §5.3.3 of the paper).
//
// Input: one row per routed prefix carrying, as integer IDs its caller
// keeps, the prefix's exact Direct Owner name, the child-most RPKI
// Resource Certificate (if any), and the origin ASN cluster (if any);
// and per owner its cleaned base name.
//
// Three families of clusters are formed:
//
//	W — Default Clusters: prefixes grouped by the exact Direct Owner
//	    name (after basic string processing).
//	R — prefixes sharing a base name AND listed in the same Resource
//	    Certificate (shared management).
//	A — prefixes sharing a base name AND originated by ASNs of the same
//	    ASN cluster (shared operation).
//
// Finally, W clusters that share membership in any R or A group are
// merged (Figure 3): the result is the connected-component fixpoint of
// the bipartite membership graph, computed with a disjoint-set union.
// Because R and A groups are keyed by base name, only same-base-name W
// clusters can ever merge — organizations with similar names but disjoint
// routing and RPKI management (Fastly, Inc. vs Fastly Network Solution)
// stay separate.
//
// # Incremental merges
//
// Merge reruns the union-find and the R/A group counts over every row —
// integer work — but builds a Cluster (sorted owner names, SHA-256 ID,
// gathered prefixes) only for a component that holds an owner the
// caller marks touched, or whose owners are not exactly those of one
// cluster of the previous Result. Every other component takes the
// previous *Cluster as it is. A merge with no previous Result builds
// every cluster: the full merge is the update from nothing.
//
// # Goroutine safety
//
// Merge is a pure function of its arguments: it reads them, works on
// local state (including a function-local DSU), and returns a freshly
// allocated Result, never writing the previous one or the Clusters it
// reuses. Distinct Merge calls may run concurrently; a Result and its
// Clusters are immutable afterwards and safe to share, across any
// number of later Results. In the pipeline this stage runs
// single-threaded, after the parallel resolve pool has been drained and
// merged deterministically; its output does not depend on owner or key
// numbering, nor on the rows' order, so it never depends on
// Options.Workers.
package cluster
