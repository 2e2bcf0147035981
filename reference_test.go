package prefix2org

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/netx"
)

// referenceFinish is §5.3 read literally over a Dataset's Records, with
// none of the build's state: W clusters are the distinct basic-cleaned
// Direct Owner names; owners are adjacent when one base name and one
// Resource Certificate, or one base name and one origin-ASN cluster,
// cover prefixes of both; the final clusters are the connected
// components of that graph, found by search. It returns those clusters,
// sorted by ID, and every Stats figure the records determine; Unmapped
// and NameCleaning, which they do not, are copied from ds.
func referenceFinish(ds *Dataset) ([]Cluster, Stats) {
	s := Stats{Unmapped: ds.Stats.Unmapped, NameCleaning: ds.Stats.NameCleaning}
	type gk struct{ base, key string }
	groups := map[gk]map[string]bool{}
	join := func(k gk, owner string) {
		if groups[k] == nil {
			groups[k] = map[string]bool{}
		}
		groups[k][owner] = true
	}
	base, prefixes := map[string]string{}, map[string][]netip.Prefix{}
	doNames, dcNames, baseNames, origins := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[uint32]bool{}
	var v4Space float64
	var v4DC, v6DC, v4RPKI, v6RPKI int
	for i := range ds.Records {
		r := &ds.Records[i]
		owner := basicClean(r.DirectOwner)
		doNames[owner], baseNames[r.BaseName] = true, true
		for _, dc := range r.DelegatedCustomers {
			dcNames[basicClean(dc)] = true
		}
		if r.OriginASN != 0 {
			origins[r.OriginASN] = true
		}
		dc, rpki := 0, 0
		if r.HasDistinctCustomer() {
			dc = 1
		}
		if r.RPKICert != "" {
			rpki = 1
		}
		if r.Prefix.Addr().Is4() {
			s.IPv4Prefixes++
			v4DC, v4RPKI = v4DC+dc, v4RPKI+rpki
			v4Space += netx.NumAddresses(r.Prefix)
		} else {
			s.IPv6Prefixes++
			v6DC, v6RPKI = v6DC+dc, v6RPKI+rpki
		}
		if owner == "" {
			continue
		}
		base[owner] = r.BaseName
		prefixes[owner] = append(prefixes[owner], r.Prefix)
		if r.BaseName == "" {
			continue
		}
		if r.RPKICert != "" {
			join(gk{r.BaseName, "R" + r.RPKICert}, owner)
		}
		if r.ASNCluster != "" {
			join(gk{r.BaseName, "A" + r.ASNCluster}, owner)
		}
	}
	adj := map[string][]string{}
	for k, members := range groups {
		multi := 0
		if len(members) > 1 {
			multi = 1
		}
		if k.key[0] == 'R' {
			s.PrefixRPKIGroups++
			s.RPKIMultiNameGroups += multi
		} else {
			s.PrefixASNGroups++
			s.ASNMultiNameGroups += multi
		}
		for a := range members {
			for b := range members {
				if a != b {
					adj[a] = append(adj[a], b)
				}
			}
		}
	}

	var final []Cluster
	var mnV4, mnV6 int
	var mnV4Space float64
	seen := map[string]bool{}
	for owner := range base {
		if seen[owner] {
			continue
		}
		seen[owner] = true
		c := Cluster{BaseName: base[owner]}
		for queue := []string{owner}; len(queue) > 0; queue = queue[1:] {
			cur := queue[0]
			c.OwnerNames = append(c.OwnerNames, cur)
			c.Prefixes = append(c.Prefixes, prefixes[cur]...)
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		slices.Sort(c.OwnerNames)
		c.Prefixes = netx.Dedup(c.Prefixes)
		// The ID: the base name (or "unnamed"), then the first three bytes
		// of the SHA-256 of every owner name followed by '|'.
		h := sha256.New()
		for _, o := range c.OwnerNames {
			h.Write([]byte(o + "|"))
		}
		name := c.BaseName
		if name == "" {
			name = "unnamed"
		}
		c.ID = name + "-" + hex.EncodeToString(h.Sum(nil)[:3])
		if c.MultiName() {
			s.MultiNameClusters++
			for _, p := range c.Prefixes {
				if p.Addr().Is4() {
					mnV4++
					mnV4Space += netx.NumAddresses(p)
				} else {
					mnV6++
				}
			}
		}
		final = append(final, c)
	}
	slices.SortFunc(final, func(a, b Cluster) int {
		if c := strings.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return slices.Compare(a.OwnerNames, b.OwnerNames)
	})
	for n := range dcNames {
		if !doNames[n] {
			s.OnlyCustomers++
		}
	}
	s.DirectOwners, s.DelegatedCustomers, s.BaseNames, s.OriginASNs = len(doNames), len(dcNames), len(baseNames), len(origins)
	s.BaseClusters, s.FinalClusters = len(base), len(final)
	s.PctV4InMultiName, s.PctV6InMultiName = pct(mnV4, s.IPv4Prefixes), pct(mnV6, s.IPv6Prefixes)
	if v4Space > 0 {
		s.PctV4SpaceInMultiName = 100 * mnV4Space / v4Space
	}
	s.PctV4DistinctDC, s.PctV6DistinctDC = pct(v4DC, s.IPv4Prefixes), pct(v6DC, s.IPv6Prefixes)
	s.PctV4InRPKI, s.PctV6InRPKI = pct(v4RPKI, s.IPv4Prefixes), pct(v6RPKI, s.IPv6Prefixes)
	return final, s
}

// checkReference holds a built Dataset to referenceFinish: its clusters
// by value, each record's final cluster, and its Stats.
func checkReference(t *testing.T, label string, ds *Dataset) {
	t.Helper()
	final, stats := referenceFinish(ds)
	if len(ds.Clusters) != len(final) {
		t.Fatalf("%s: %d clusters, the §5.3 reference %d", label, len(ds.Clusters), len(final))
	}
	for i := range final {
		if !reflect.DeepEqual(*ds.Clusters[i], final[i]) {
			t.Fatalf("%s: cluster %d = %+v, the §5.3 reference %+v", label, i, *ds.Clusters[i], final[i])
		}
	}
	for i := range ds.Records {
		r := &ds.Records[i]
		c, ok := ds.ClusterOfOwner(r.DirectOwner)
		if want := ""; !ok && r.FinalCluster != want || ok && (c.ID != r.FinalCluster || c.BaseName != r.BaseName) {
			t.Fatalf("%s: record %s is in cluster %q (base %q); its owner's cluster is %v", label, r.Prefix, r.FinalCluster, r.BaseName, c)
		}
	}
	if ds.Stats != stats {
		t.Fatalf("%s: Stats = %+v, the §5.3 reference %+v", label, ds.Stats, stats)
	}
}
