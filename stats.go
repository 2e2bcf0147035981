package prefix2org

import (
	"net/netip"
	"sort"

	"github.com/prefix2org/prefix2org/internal/cluster"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// recordStats is the half of the Stats that reads the records alone,
// so finish can count it beside the cluster pass.
type recordStats struct {
	dcNames                            map[string]bool // distinct basic-cleaned Delegated Customer names
	origins                            int             // distinct origin ASNs
	v4, v6, v4DC, v6DC, v4RPKI, v6RPKI int
}

// countRecords computes the record-only half of the Stats. It reads the
// records' Prefix, DirectOwner, DelegatedCustomers, RPKICert and
// OriginASN, which no pass of finish writes.
func countRecords(recs []Record, clean *cleanState) recordStats {
	var rs recordStats
	rawDC := make(map[string]bool, len(recs)/4)
	origins := make(map[uint32]bool, len(recs)/4)
	for i := range recs {
		r := &recs[i]
		for _, dc := range r.DelegatedCustomers {
			rawDC[dc] = true
		}
		if r.OriginASN != 0 {
			origins[r.OriginASN] = true
		}
		if r.Prefix.Addr().Is4() {
			rs.v4++
			if r.HasDistinctCustomer() {
				rs.v4DC++
			}
			if r.RPKICert != "" {
				rs.v4RPKI++
			}
		} else {
			rs.v6++
			if r.HasDistinctCustomer() {
				rs.v6DC++
			}
			if r.RPKICert != "" {
				rs.v6RPKI++
			}
		}
	}
	rs.origins = len(origins)
	rs.dcNames = make(map[string]bool, len(rawDC))
	for dc := range rawDC {
		// Most customers are Direct Owners elsewhere (or of the same
		// block): their basic-cleaned form is already traced.
		if s, ok := clean.traced[dc]; ok {
			rs.dcNames[s.Basic] = true
		} else {
			rs.dcNames[basicClean(dc)] = true
		}
	}
	return rs
}

// computeStats completes the Stats from the record-only half rs and the
// outcome of the cluster pass.
func (d *Dataset) computeStats(cres *cluster.Result, clean *cleanState, unmapped int, rs *recordStats) {
	s := &d.Stats
	s.Unmapped = unmapped

	// The records' Direct Owner names are exactly the clean-names corpus,
	// which already holds their distinct basic-cleaned and base forms.
	doNames := clean.owners
	v4, v6 := rs.v4, rs.v6
	s.IPv4Prefixes, s.IPv6Prefixes = v4, v6
	s.DirectOwners = len(doNames)
	s.DelegatedCustomers = len(rs.dcNames)
	for n := range rs.dcNames {
		if !doNames[n] {
			s.OnlyCustomers++
		}
	}
	s.BaseNames = clean.baseNames
	s.OriginASNs = rs.origins
	s.PrefixRPKIGroups = cres.RGroups
	s.PrefixASNGroups = cres.AGroups
	s.RPKIMultiNameGroups = cres.RMultiName
	s.ASNMultiNameGroups = cres.AMultiName
	s.BaseClusters = cres.WCount
	s.FinalClusters = len(d.Clusters)

	var mnV4, mnV6 int
	var mnV4Space, totalV4Space float64
	// cres.Of parallels the records: cres.Of[i] is record i's cluster.
	for i := range d.Records {
		r := &d.Records[i]
		multi := cres.Of[i] != nil && cres.Of[i].MultiName()
		if r.Prefix.Addr().Is4() {
			addrs := netx.NumAddresses(r.Prefix)
			totalV4Space += addrs
			if multi {
				mnV4++
				mnV4Space += addrs
			}
		} else if multi {
			mnV6++
		}
	}
	for _, c := range d.Clusters {
		if c.MultiName() {
			s.MultiNameClusters++
		}
	}
	s.PctV4InMultiName = pct(mnV4, v4)
	s.PctV6InMultiName = pct(mnV6, v6)
	if totalV4Space > 0 {
		s.PctV4SpaceInMultiName = 100 * mnV4Space / totalV4Space
	}
	s.PctV4DistinctDC = pct(rs.v4DC, v4)
	s.PctV6DistinctDC = pct(rs.v6DC, v6)
	s.PctV4InRPKI = pct(rs.v4RPKI, v4)
	s.PctV6InRPKI = pct(rs.v6RPKI, v6)
	s.NameCleaning = clean.steps
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
