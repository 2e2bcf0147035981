package prefix2org

import (
	"maps"
	"net/netip"
	"sort"

	"github.com/prefix2org/prefix2org/internal/cluster"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// recordStats is the half of the Stats that reads the records alone,
// so finish can count it beside the cluster pass — and, kept with the
// delta state, update it from the records a build changes.
type recordStats struct {
	origins                            map[uint32]int32 // origin ASN -> the records it originates
	v4, v6, v4DC, v6DC, v4RPKI, v6RPKI int
	v4Space                            float64 // addresses of the IPv4 records, nested ones counted again
}

// update returns rs (nil: nothing counted) with ch's removed records
// taken out and its added ones, positions in recs, counted in. It reads the records'
// Prefix, DirectOwner, DelegatedCustomers, RPKICert and OriginASN, which
// no pass of finish writes. The sums are of whole numbers far below
// 2^53, so their order cannot change them.
func (rs *recordStats) update(recs []Record, ch *changes) *recordStats {
	next := &recordStats{}
	if rs != nil {
		*next = *rs
	}
	copied := false
	count := func(r *Record, d int) {
		if r.OriginASN != 0 {
			if !copied {
				next.origins, copied = make(map[uint32]int32, len(next.origins)+1), true
				if rs != nil {
					maps.Copy(next.origins, rs.origins)
				}
			}
			if next.origins[r.OriginASN] += int32(d); next.origins[r.OriginASN] == 0 {
				delete(next.origins, r.OriginASN)
			}
		}
		dc, rpki := 0, 0
		if r.HasDistinctCustomer() {
			dc = d
		}
		if r.RPKICert != "" {
			rpki = d
		}
		if r.Prefix.Addr().Is4() {
			next.v4 += d
			next.v4DC += dc
			next.v4RPKI += rpki
			next.v4Space += float64(d) * netx.NumAddresses(r.Prefix)
		} else {
			next.v6 += d
			next.v6DC += dc
			next.v6RPKI += rpki
		}
	}
	for k := range ch.removed {
		count(&ch.removed[k], -1)
	}
	for _, i := range ch.added {
		count(&recs[i], 1)
	}
	return next
}

// computeStats completes the Stats from the record-only half rs, the
// name table and the outcome of the cluster pass.
func (d *Dataset) computeStats(res *cluster.Result, clean *cleanState, rs *recordStats, unmapped int, opts Options) {
	s := &d.Stats
	s.Unmapped = unmapped
	s.IPv4Prefixes, s.IPv6Prefixes = rs.v4, rs.v6
	s.DirectOwners = clean.directOwners
	s.DelegatedCustomers = clean.customers
	s.OnlyCustomers = clean.onlyCustomers
	s.BaseNames = clean.baseNames(opts)
	s.OriginASNs = len(rs.origins)
	s.PrefixRPKIGroups = res.RGroups
	s.PrefixASNGroups = res.AGroups
	s.RPKIMultiNameGroups = res.RMultiName
	s.ASNMultiNameGroups = res.AMultiName
	s.BaseClusters = res.WCount
	s.FinalClusters = len(res.Final)
	s.MultiNameClusters = res.MultiName
	s.PctV4InMultiName = pct(res.MultiNameV4, rs.v4)
	s.PctV6InMultiName = pct(res.MultiNameV6, rs.v6)
	if rs.v4Space > 0 {
		s.PctV4SpaceInMultiName = 100 * res.MultiNameV4Space / rs.v4Space
	}
	s.PctV4DistinctDC = pct(rs.v4DC, rs.v4)
	s.PctV6DistinctDC = pct(rs.v6DC, rs.v6)
	s.PctV4InRPKI = pct(rs.v4RPKI, rs.v4)
	s.PctV6InRPKI = pct(rs.v6RPKI, rs.v6)
	s.NameCleaning = clean.corpus.Counts()
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// ClusterSpace is one cluster's address-space accounting, used by the
// Figure 4/5 rankings.
type ClusterSpace struct {
	Cluster   *Cluster
	V4Space   float64 // IPv4 addresses held (covered more-specifics deduped)
	V6Count   int     // IPv6 prefixes held
	NameCount int     // distinct exact WHOIS names
}

// spaceOf accounts the prefixes ps of cluster c, which holds names
// distinct exact WHOIS names.
func spaceOf(c *Cluster, ps []netip.Prefix, names int) ClusterSpace {
	var v4 []netip.Prefix
	v6 := 0
	for _, p := range ps {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		} else {
			v6++
		}
	}
	return ClusterSpace{Cluster: c, V4Space: netx.TotalAddresses(v4), V6Count: v6, NameCount: names}
}

// sortBySpace orders a ranking by IPv4 space, largest first, ties by
// cluster ID.
func sortBySpace(out []ClusterSpace) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].V4Space != out[j].V4Space {
			return out[i].V4Space > out[j].V4Space
		}
		return out[i].Cluster.ID < out[j].Cluster.ID
	})
}

// TopClustersBySpace returns the n largest final clusters by IPv4 address
// space (Figure 4's ranking).
func (d *Dataset) TopClustersBySpace(n int) []ClusterSpace {
	out := make([]ClusterSpace, 0, d.NumClusters())
	for i := range d.NumClusters() {
		c := d.ClusterAt(i)
		out = append(out, spaceOf(c, c.Prefixes, len(c.OwnerNames)))
	}
	sortBySpace(out)
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// TotalV4Space returns the total routed IPv4 address space in the dataset
// (denominator of Figure 4).
func (d *Dataset) TotalV4Space() float64 {
	var ps []netip.Prefix
	for i := range d.NumRecords() {
		if p := d.RecordAt(i).Prefix; p.Addr().Is4() {
			ps = append(ps, p)
		}
	}
	return netx.TotalAddresses(ps)
}

// WhoisNameClusters computes the baseline "Default Cluster" ranking: group
// prefixes by the exact Direct Owner name only (the red curves of Figures
// 4 and 5).
func (d *Dataset) WhoisNameClusters() []ClusterSpace {
	groups := map[string][]netip.Prefix{}
	for i := range d.NumRecords() {
		r := d.RecordAt(i)
		groups[basicClean(r.DirectOwner)] = append(groups[basicClean(r.DirectOwner)], r.Prefix)
	}
	out := make([]ClusterSpace, 0, len(groups))
	for name, ps := range groups {
		cs := spaceOf(nil, ps, 1)
		cs.Cluster = &Cluster{ID: name, OwnerNames: []string{name}, Prefixes: netx.Dedup(ps)}
		out = append(out, cs)
	}
	sortBySpace(out)
	return out
}

// AS2OrgClusters computes the baseline that attributes each prefix to its
// origin-ASN cluster (the green curves of Figures 4 and 5) — the
// misattribution-prone method the paper compares against: providers
// originating customer space absorb it.
func (d *Dataset) AS2OrgClusters() []ClusterSpace {
	type group struct {
		prefixes []netip.Prefix
		names    map[string]bool
	}
	groups := map[string]*group{}
	for i := range d.NumRecords() {
		r := d.RecordAt(i)
		if r.ASNCluster == "" {
			continue
		}
		g := groups[r.ASNCluster]
		if g == nil {
			g = &group{names: map[string]bool{}}
			groups[r.ASNCluster] = g
		}
		g.prefixes = append(g.prefixes, r.Prefix)
		g.names[basicClean(r.DirectOwner)] = true
	}
	out := make([]ClusterSpace, 0, len(groups))
	for id, g := range groups {
		cs := spaceOf(nil, g.prefixes, len(g.names))
		cs.Cluster = &Cluster{ID: "as" + id, Prefixes: netx.Dedup(g.prefixes)}
		out = append(out, cs)
	}
	sortBySpace(out)
	return out
}
