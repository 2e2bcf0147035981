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

// PrefixInfo is one routed prefix's clustering inputs.
type PrefixInfo struct {
	Prefix netip.Prefix
	// OwnerName is the exact Direct Owner name (basic-cleaned), the W
	// cluster key.
	OwnerName string
	// BaseName is the cleaned base name from the names pipeline.
	BaseName string
	// CertSKI identifies the child-most RPKI Resource Certificate
	// covering the prefix; empty when the prefix is not in any RC.
	CertSKI string
	// ASNCluster identifies the origin ASN's cluster; empty when the
	// prefix is not routed or the origin is unknown.
	ASNCluster string
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

// Result is the outcome of Build.
type Result struct {
	// Final are the merged clusters, sorted by ID.
	Final []*Cluster
	// Of parallels the infos passed to Build: the final cluster of each
	// (nil for an info with no owner name).
	Of []*Cluster
	// WCount is the number of Default (exact-name) clusters.
	WCount int
	// RGroups / AGroups count the distinct non-trivial R and A groups.
	RGroups, AGroups int
	// RMultiName / AMultiName count R and A groups spanning more than
	// one exact owner name (the groups that caused aggregation).
	RMultiName, AMultiName int
}

// Build runs the full W/R/A construction and the Figure 3 merge.
//
// Owner names are interned to dense integer IDs up front and the
// union-find runs over plain int slices: the merge is on the snapshot
// rebuild path (full and delta alike), where the map-of-strings DSU it
// replaced dominated the pass. The output — grouping, member order,
// per-cluster base name, IDs — is identical to the string-keyed
// construction, since union-find components do not depend on
// representative choice.
func Build(infos []PrefixInfo) *Result {
	// W clusters: one DSU element per exact owner name, interned in
	// first-appearance order.
	ownerID := make(map[string]int32, len(infos)/4)
	var ownerNames []string
	intern := func(name string) int32 {
		id, ok := ownerID[name]
		if !ok {
			id = int32(len(ownerNames))
			ownerID[name] = id
			ownerNames = append(ownerNames, name)
		}
		return id
	}
	ids := make([]int32, len(infos)) // per-info owner ID; -1 when unowned
	for i := range infos {
		if infos[i].OwnerName == "" {
			ids[i] = -1
			continue
		}
		ids[i] = intern(infos[i].OwnerName)
	}
	u := dsu.New(len(ownerNames))

	// R and A groups: base name × shared certificate / ASN cluster. Each
	// group unions the W clusters of its members, as they arrive: a group
	// is just the owner that opened it and whether a different owner has
	// joined since. The concatenated key string is materialized only when
	// a group is stored: a lookup on string(keyBuf) never copies the
	// bytes, and a group is stored at most twice.
	type group struct {
		first int32 // the owner ID that opened the group
		multi bool  // a second, different owner has joined
	}
	var keyBuf []byte
	join := func(groups map[string]group, base, disc string, id int32) {
		keyBuf = append(append(append(keyBuf[:0], base...), 0), disc...)
		g, ok := groups[string(keyBuf)]
		switch {
		case !ok:
			groups[string(keyBuf)] = group{first: id}
		case g.first != id:
			u.Union(g.first, id)
			if !g.multi {
				g.multi = true
				groups[string(keyBuf)] = g
			}
		}
	}
	rGroups := make(map[string]group, len(infos)/4)
	aGroups := make(map[string]group, len(infos)/4)
	for i := range infos {
		in := &infos[i]
		if ids[i] < 0 || in.BaseName == "" {
			continue
		}
		if in.CertSKI != "" {
			join(rGroups, in.BaseName, in.CertSKI, ids[i])
		}
		if in.ASNCluster != "" {
			join(aGroups, in.BaseName, in.ASNCluster, ids[i])
		}
	}
	countMulti := func(groups map[string]group) int {
		n := 0
		for _, g := range groups {
			if g.multi {
				n++
			}
		}
		return n
	}
	res := &Result{
		WCount:     len(ownerNames),
		RGroups:    len(rGroups),
		AGroups:    len(aGroups),
		RMultiName: countMulti(rGroups),
		AMultiName: countMulti(aGroups),
	}

	// Materialize final clusters from the DSU components, gathered in
	// slices indexed by the component's representative owner ID.
	n := len(ownerNames)
	compOwners := make([][]string, n)
	for id, name := range ownerNames {
		rep := u.Find(int32(id))
		compOwners[rep] = append(compOwners[rep], name)
	}
	baseOf := make([]string, n)
	prefixesOf := make([][]netip.Prefix, n)
	for i := range infos {
		if ids[i] < 0 {
			continue
		}
		rep := u.Find(ids[i])
		prefixesOf[rep] = append(prefixesOf[rep], infos[i].Prefix.Masked())
		if baseOf[rep] == "" && infos[i].BaseName != "" {
			baseOf[rep] = infos[i].BaseName
		}
	}
	ofRep := make([]*Cluster, n)
	h := sha256.New()
	for rep, members := range compOwners {
		if members == nil {
			continue // not a representative
		}
		slices.Sort(members)
		c := &Cluster{
			BaseName:   baseOf[rep],
			OwnerNames: members,
			Prefixes:   netx.Dedup(prefixesOf[rep]),
		}
		h.Reset()
		c.ID = clusterID(h, c.BaseName, members)
		res.Final = append(res.Final, c)
		ofRep[rep] = c
	}
	slices.SortFunc(res.Final, func(a, b *Cluster) int { return strings.Compare(a.ID, b.ID) })
	res.Of = make([]*Cluster, len(infos))
	for i, id := range ids {
		if id >= 0 {
			res.Of[i] = ofRep[u.Find(id)]
		}
	}
	return res
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
