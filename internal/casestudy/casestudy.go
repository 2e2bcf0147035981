// Package casestudy implements the paper's two §8 case studies:
// characterizing organizations that hold address space without operating
// an ASN (§8.1), and comparing AS-centric versus prefix-centric views of
// RPKI ROA adoption (§8.2, Table 7).
package casestudy

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
)

// --- §8.1: organizations without ASes --------------------------------------

// NoASNOrg is one organization holding routed space without an ASN.
type NoASNOrg struct {
	Cluster      *prefix2org.Cluster
	V4Prefixes   int
	V4Addresses  float64
	V6Prefixes   int
	OriginASNs   int // distinct ASNs originating the org's prefixes
	HasCustomers bool
}

// NoASNReport summarizes the §8.1 case study.
type NoASNReport struct {
	TotalClusters int
	NoASNClusters int
	// Share of routed prefixes held by clusters without an ASN.
	PctV4Prefixes, PctV6Prefixes float64
	// Top holders without an ASN, by IPv4 addresses.
	Top []NoASNOrg
}

// PctClusters returns the share of clusters without an ASN (paper:
// 21.41%).
func (r *NoASNReport) PctClusters() float64 {
	if r.TotalClusters == 0 {
		return 0
	}
	return 100 * float64(r.NoASNClusters) / float64(r.TotalClusters)
}

// OrgsWithoutASN identifies final clusters none of whose owner names
// appears in the AS2Org dataset — the paper's method for finding holders
// that operate no ASN.
func OrgsWithoutASN(ds *prefix2org.Dataset, asd *as2org.Dataset, topN int) (*NoASNReport, error) {
	if ds == nil || asd == nil {
		return nil, fmt.Errorf("casestudy: nil input")
	}
	// Names of organizations that own ASNs, per AS2Org.
	asOrgNames := map[string]bool{}
	for _, info := range asd.ASes {
		if name, ok := asd.OrgName(info.ASN); ok {
			asOrgNames[basic(name)] = true
		}
	}
	rep := &NoASNReport{TotalClusters: ds.NumClusters()}
	var candidates []NoASNOrg
	var noASNv4, noASNv6, totalV4, totalV6 int
	// Per-cluster origin-ASN sets and customer flags.
	originsOf := map[string]map[uint32]bool{}
	hasCustomer := map[string]bool{}
	for i := range ds.NumRecords() {
		r := ds.RecordAt(i)
		if r.Prefix.Addr().Is4() {
			totalV4++
		} else {
			totalV6++
		}
		if r.OriginASN != 0 {
			m := originsOf[r.FinalCluster]
			if m == nil {
				m = map[uint32]bool{}
				originsOf[r.FinalCluster] = m
			}
			m[r.OriginASN] = true
		}
		if r.HasDistinctCustomer() {
			hasCustomer[r.FinalCluster] = true
		}
	}
	for i := range ds.NumClusters() {
		c := ds.ClusterAt(i)
		owns := false
		for _, n := range c.OwnerNames {
			if asOrgNames[basic(n)] {
				owns = true
				break
			}
		}
		if owns {
			continue
		}
		rep.NoASNClusters++
		var v4 []netip.Prefix
		org := NoASNOrg{Cluster: c, OriginASNs: len(originsOf[c.ID]), HasCustomers: hasCustomer[c.ID]}
		for _, p := range c.Prefixes {
			if p.Addr().Is4() {
				org.V4Prefixes++
				v4 = append(v4, p)
				noASNv4++
			} else {
				org.V6Prefixes++
				noASNv6++
			}
		}
		org.V4Addresses = netx.TotalAddresses(v4)
		candidates = append(candidates, org)
	}
	if totalV4 > 0 {
		rep.PctV4Prefixes = 100 * float64(noASNv4) / float64(totalV4)
	}
	if totalV6 > 0 {
		rep.PctV6Prefixes = 100 * float64(noASNv6) / float64(totalV6)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].V4Addresses != candidates[j].V4Addresses {
			return candidates[i].V4Addresses > candidates[j].V4Addresses
		}
		return candidates[i].Cluster.ID < candidates[j].Cluster.ID
	})
	if topN < len(candidates) {
		candidates = candidates[:topN]
	}
	rep.Top = candidates
	return rep, nil
}

func basic(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// --- §8.2: AS-centric vs prefix-centric ROA coverage ------------------------

// ROARow is one Table 7 row: an origin ASN with its organization's ROA
// coverage measured both ways.
type ROARow struct {
	ASN     uint32
	OrgName string
	// OwnCount/OwnROA: prefixes originated by the ASN for which the
	// organization is also the Direct Owner (prefix-centric view).
	OwnCount int
	OwnROA   int
	// OriginCount/OriginROA: all prefixes originated by the ASN
	// (AS-centric view).
	OriginCount int
	OriginROA   int
}

// OwnPct returns the prefix-centric ROA coverage percentage.
func (r *ROARow) OwnPct() float64 {
	if r.OwnCount == 0 {
		return 0
	}
	return 100 * float64(r.OwnROA) / float64(r.OwnCount)
}

// OriginPct returns the AS-centric ROA coverage percentage.
func (r *ROARow) OriginPct() float64 {
	if r.OriginCount == 0 {
		return 0
	}
	return 100 * float64(r.OriginROA) / float64(r.OriginCount)
}

// Disparity returns OwnPct - OriginPct; large positive values are the
// paper's headline cases (ISPs that secured their own space but originate
// unsigned customer space).
func (r *ROARow) Disparity() float64 { return r.OwnPct() - r.OriginPct() }

// ROACoverage computes Table 7 over every origin ASN that originates at
// least minPrefixes prefixes and whose organization is known in AS2Org.
// Rows are sorted by decreasing |disparity|.
func ROACoverage(ds *prefix2org.Dataset, repo *rpki.Repository, asd *as2org.Dataset, minPrefixes int) ([]ROARow, error) {
	if ds == nil || repo == nil || asd == nil {
		return nil, fmt.Errorf("casestudy: nil input")
	}
	rows := map[uint32]*ROARow{}
	for i := range ds.NumRecords() {
		r := ds.RecordAt(i)
		if r.OriginASN == 0 {
			continue
		}
		orgName, known := asd.OrgName(r.OriginASN)
		if !known {
			continue
		}
		row := rows[r.OriginASN]
		if row == nil {
			row = &ROARow{ASN: r.OriginASN, OrgName: orgName}
			rows[r.OriginASN] = row
		}
		covered := repo.HasROA(r.Prefix)
		row.OriginCount++
		if covered {
			row.OriginROA++
		}
		// Prefix-centric: the origin's organization is also the Direct
		// Owner when the record's final cluster is the cluster of the
		// origin's organization name.
		if c, ok := ds.ClusterOfOwner(orgName); ok && c.ID == r.FinalCluster {
			row.OwnCount++
			if covered {
				row.OwnROA++
			}
		}
	}
	var out []ROARow
	for _, row := range rows {
		if row.OriginCount >= minPrefixes && row.OwnCount > 0 {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := abs(out[i].Disparity()), abs(out[j].Disparity())
		if di != dj {
			return di > dj
		}
		return out[i].ASN < out[j].ASN
	})
	return out, nil
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
