package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"net/netip"
	"slices"
	"strings"

	"github.com/prefix2org/prefix2org/internal/dsu"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Row is one routed prefix's inputs to the merge, as IDs its caller
// keeps: the W cluster of its Direct Owner (the owner ID of the exact,
// basic-cleaned name; -1 for none), and the keys of the child-most RPKI
// Resource Certificate covering it and of its origin ASN's cluster (-1
// for none). Certificates and ASN clusters may share one key space: a
// key ID only ever meets others of its own signal.
type Row struct {
	Owner, Cert, ASN int32
}

// Owners describes the owner IDs rows name, each column indexed by
// owner ID.
type Owners struct {
	// Names are the exact owner names.
	Names []string
	// Base gives each owner's base name from the names pipeline, as an
	// index into BaseNames; -1 for an owner with none, which joins no R
	// or A group.
	Base      []int32
	BaseNames []string
	// Touched marks the owners whose rows or base name changed since the
	// merge the next one reuses clusters from.
	Touched []bool
}

// Cluster is one final prefix cluster: the prefixes of one inferred
// organization.
type Cluster struct {
	// ID is a stable identifier, "<basename>-<hash>" (e.g.
	// "verizon-076541").
	ID string
	// BaseName is the shared base name of the cluster's Direct Owners.
	BaseName string
	// OwnerNames are the distinct exact Direct Owner names merged into
	// this cluster, sorted.
	OwnerNames []string
	// Prefixes are the member prefixes in canonical order.
	Prefixes []netip.Prefix
}

// MultiName reports whether the cluster aggregates more than one exact
// WHOIS organization name (the paper's "multi-org-name cluster").
func (c *Cluster) MultiName() bool { return len(c.OwnerNames) > 1 }

// Result is the outcome of Merge. It is never written after Merge
// returns; the clusters it holds are shared with every later Result that
// reuses them.
type Result struct {
	// Final are the merged clusters, sorted by ID.
	Final []*Cluster
	// owner parallels Final: one owner ID of each cluster.
	owner []int32
	// of is each owner ID's final cluster, nil for an owner with no rows.
	of []*Cluster
	// WCount is the number of Default (exact-name) clusters: the owners
	// with rows.
	WCount int
	// RGroups / AGroups count the distinct R and A groups, single-owner
	// ones included.
	RGroups, AGroups int
	// RMultiName / AMultiName count R and A groups spanning more than
	// one exact owner name (the groups that caused aggregation).
	RMultiName, AMultiName int
	// MultiName counts the clusters of more than one owner name;
	// MultiNameV4 and MultiNameV6 the IPv4 and IPv6 prefixes they hold,
	// and MultiNameV4Space the IPv4 addresses of those prefixes, nested
	// ones counted again.
	MultiName, MultiNameV4, MultiNameV6 int
	MultiNameV4Space                    float64
	// Keys is the number of distinct keys the rows name.
	Keys int
	// Rebuilt counts the clusters built afresh, and Reused those taken
	// from the previous Result.
	Rebuilt, Reused int
}

// fresh is a cluster Merge built, with one of its owners.
type fresh struct {
	c     *Cluster
	owner int32
}

// Of returns the final cluster of an owner ID, nil when the owner has no
// rows (or is -1). The nil Result clusters nothing.
func (r *Result) Of(owner int32) *Cluster {
	if r == nil || owner < 0 || int(owner) >= len(r.of) {
		return nil
	}
	return r.of[owner]
}

// Merge runs the W/R/A construction and the Figure 3 merge over rows:
// the W clusters are the owners, and the R and A groups — the rows
// sharing a base name and a certificate, or a base name and an ASN
// cluster — union them, in one pass over every row, grouped by owner.
// keys bounds the rows' key IDs; prefix(i) is row i's prefix.
//
// A component is materialized — owner names sorted, prefixes gathered,
// ID hashed — only when it holds an owner Touched, or its owners are not
// exactly those of one cluster of prev. Any other component is the same
// cluster prev holds, and takes that *Cluster as it is. With prev nil
// every component is built: a full merge is the update from nothing.
// The output does not depend on which owner ID a name has, nor on the
// rows' order.
func Merge(prev *Result, own Owners, rows []Row, keys int, prefix func(row int) netip.Prefix) *Result {
	n := len(own.Names)
	res := &Result{of: make([]*Cluster, n)}
	// The rows grouped by owner, in row order: owner o's are
	// byOwner[start[o]:start[o+1]]. used marks the keys rows name.
	start := make([]int32, n+1)
	used := make([]bool, keys)
	for _, r := range rows {
		for _, k := range [2]int32{r.Cert, r.ASN} {
			if k >= 0 && !used[k] {
				used[k] = true
				res.Keys++
			}
		}
		if r.Owner >= 0 {
			start[r.Owner+1]++
		}
	}
	for o := range n {
		start[o+1] += start[o]
	}
	byOwner := make([]int32, start[n])
	next := make([]int32, max(n, len(own.BaseNames))) // fill cursors
	copy(next, start[:n])
	for i, r := range rows {
		if r.Owner >= 0 {
			byOwner[next[r.Owner]] = int32(i)
			next[r.Owner]++
		}
	}

	// The owners grouped by base name: base b's are
	// byBase[bstart[b]:bstart[b+1]].
	nb := len(own.BaseNames)
	bstart := make([]int32, nb+1)
	for o := range n {
		if b := own.Base[o]; b >= 0 && start[o] < start[o+1] {
			bstart[b+1]++
		}
	}
	for b := range nb {
		bstart[b+1] += bstart[b]
	}
	byBase := make([]int32, bstart[nb])
	copy(next, bstart[:nb])
	for o := range int32(n) {
		if b := own.Base[o]; b >= 0 && start[o] < start[o+1] {
			byBase[next[b]] = o
			next[b]++
		}
	}

	// Under one base name an R or A group is one key — R keys first, then
	// A keys offset by the key bound — so the groups of one base are
	// open at once, in arrays over the keys: open[k] is 1 + the base
	// whose group under k is open, first[k] the owner that opened it and
	// multi[k] whether a different owner has joined. An owner joins each
	// of its keys once, however many of its rows carry the key: seen[k]
	// is 1 + the last owner that joined under k.
	u := dsu.New(n)
	seen, open, first := make([]int32, 2*keys), make([]int32, 2*keys), make([]int32, 2*keys)
	multi := make([]bool, 2*keys)
	for b := range int32(nb) {
		for _, o := range byBase[bstart[b]:bstart[b+1]] {
			for _, i := range byOwner[start[o]:start[o+1]] {
				for kind, k := range [2]int32{rows[i].Cert, rows[i].ASN} {
					if k < 0 {
						continue
					}
					k += int32(kind * keys)
					if seen[k] == o+1 {
						continue
					}
					seen[k] = o + 1
					switch {
					case open[k] != b+1:
						open[k], first[k], multi[k] = b+1, o, false
						res.RGroups += 1 - kind
						res.AGroups += kind
					case !multi[k]:
						multi[k] = true
						res.RMultiName += 1 - kind
						res.AMultiName += kind
						fallthrough
					default:
						u.Union(first[k], o)
					}
				}
			}
		}
	}

	// Each component keeps the previous cluster its owners were all in,
	// or is dirty. rep[o] is owner o's representative, -1 for an owner
	// with no rows.
	rep := make([]int32, n)
	was := make([]*Cluster, n)
	size := make([]int32, n)
	dirty := make([]bool, n)
	for o := range rep {
		if start[o] == start[o+1] {
			rep[o] = -1
			continue
		}
		r := u.Find(int32(o))
		rep[o] = r
		size[r]++
		res.WCount++
		var p *Cluster
		if prev != nil {
			p = prev.Of(int32(o))
		}
		switch {
		case p == nil || own.Touched[o]:
			dirty[r] = true
		case was[r] == nil:
			was[r] = p
		case was[r] != p:
			dirty[r] = true
		}
	}
	// slot[r] numbers the dirty components; -1 for any other owner.
	slot := make([]int32, n)
	var built []fresh
	var members [][]string
	for o, r := range rep {
		slot[o] = -1
		if r < 0 || int(r) != o {
			continue
		}
		if !dirty[r] && int(size[r]) != len(was[r].OwnerNames) {
			dirty[r] = true // a previous cluster lost owners, or split
		}
		if dirty[r] {
			slot[r] = int32(len(built))
			c := &Cluster{}
			if b := own.Base[r]; b >= 0 {
				c.BaseName = own.BaseNames[b]
			}
			built = append(built, fresh{c, r})
			members = append(members, nil)
		}
	}
	for o, r := range rep {
		if r < 0 || !dirty[r] {
			continue
		}
		members[slot[r]] = append(members[slot[r]], own.Names[o])
		c := built[slot[r]].c
		for _, i := range byOwner[start[o]:start[o+1]] {
			c.Prefixes = append(c.Prefixes, prefix(int(i)).Masked())
		}
	}
	h := sha256.New()
	for k, f := range built {
		slices.Sort(members[k])
		f.c.OwnerNames = members[k]
		f.c.Prefixes = netx.Dedup(f.c.Prefixes)
		h.Reset()
		f.c.ID = clusterID(h, f.c.BaseName, f.c.OwnerNames)
	}
	for o, r := range rep {
		switch {
		case r < 0:
		case dirty[r]:
			res.of[o] = built[slot[r]].c
		default:
			res.of[o] = was[r]
		}
	}

	// The final list: the previous clusters still standing, in their
	// order, merged with the built ones sorted the same way.
	slices.SortFunc(built, func(a, b fresh) int { return byID(a.c, b.c) })
	var kept []fresh
	if prev != nil {
		kept = make([]fresh, 0, len(prev.Final))
		for i, c := range prev.Final {
			if res.Of(prev.owner[i]) == c {
				kept = append(kept, fresh{c, prev.owner[i]})
			}
		}
	}
	res.Rebuilt, res.Reused = len(built), len(kept)
	res.Final = make([]*Cluster, 0, len(kept)+len(built))
	res.owner = make([]int32, 0, len(kept)+len(built))
	for len(kept) > 0 || len(built) > 0 {
		var f fresh
		if len(built) == 0 || len(kept) > 0 && byID(kept[0].c, built[0].c) < 0 {
			f, kept = kept[0], kept[1:]
		} else {
			f, built = built[0], built[1:]
		}
		res.Final, res.owner = append(res.Final, f.c), append(res.owner, f.owner)
		if f.c.MultiName() {
			res.MultiName++
			for _, p := range f.c.Prefixes {
				if p.Addr().Is4() {
					res.MultiNameV4++
					res.MultiNameV4Space += netx.NumAddresses(p)
				} else {
					res.MultiNameV6++
				}
			}
		}
	}
	return res
}

// byID orders clusters by ID, and clusters sharing an ID — which the
// 24-bit hash makes possible, not likely — by owner names.
func byID(a, b *Cluster) int {
	if c := strings.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return slices.Compare(a.OwnerNames, b.OwnerNames)
}

// clusterID derives the stable "<basename>-<hash>" identifier from the
// sorted member names: the first three bytes, in hex, of the SHA-256 of
// every name followed by '|'. h is a reset SHA-256 the caller reuses
// across clusters.
func clusterID(h hash.Hash, base string, owners []string) string {
	for _, o := range owners {
		io.WriteString(h, o)
		h.Write([]byte{'|'})
	}
	var sum [sha256.Size]byte
	if base == "" {
		base = "unnamed"
	}
	return base + "-" + hex.EncodeToString(h.Sum(sum[:0])[:3])
}
