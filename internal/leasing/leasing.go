package leasing

import (
	"fmt"
	"net/netip"
	"sort"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Candidate is one cluster flagged as a likely lessor / leasing entity.
type Candidate struct {
	Cluster *prefix2org.Cluster
	// V4Prefixes is the cluster's routed IPv4 prefix count.
	V4Prefixes int
	// DistinctOrigins counts distinct origin-ASN clusters announcing the
	// cluster's prefixes.
	DistinctOrigins int
	// ForeignOriginShare is the fraction of the cluster's prefixes
	// announced by origins outside the cluster itself.
	ForeignOriginShare float64
	// SubDelegatedShare is the fraction of prefixes with a Delegated
	// Customer distinct from the owner (leases usually appear as
	// reassignments, Appendix E case i).
	SubDelegatedShare float64
	// Score orders candidates: origins dispersion weighted by size.
	Score float64
}

// Options tunes the detector.
type Options struct {
	// MinPrefixes is the minimum routed IPv4 prefixes for a cluster to
	// be considered (tiny holders cannot be distinguished).
	MinPrefixes int
	// MinOrigins is the minimum distinct origin-ASN clusters.
	MinOrigins int
	// MinForeignShare is the minimum share of prefixes announced from
	// outside the owner's own cluster.
	MinForeignShare float64
}

// DefaultOptions mirror the Cloud Innovation fingerprint at synthetic
// scale. The foreign-share floor sits at one half: a lessor's
// non-delegated blocks are announced by its own upstream (which "homes"
// to the lessor and counts as own), so even heavy lessors rarely exceed
// ~0.6 — the dispersion term of the score does the real ranking.
func DefaultOptions() Options {
	return Options{MinPrefixes: 10, MinOrigins: 4, MinForeignShare: 0.5}
}

// Detect scans the dataset for leasing-like clusters, most suspicious
// first.
func Detect(ds *prefix2org.Dataset, opts Options) ([]Candidate, error) {
	if ds == nil {
		return nil, fmt.Errorf("leasing: nil dataset")
	}
	if opts.MinPrefixes <= 0 {
		opts = DefaultOptions()
	}
	type acc struct {
		v4          []netip.Prefix
		origins     map[string]bool
		foreign     int
		subDeleg    int
		routedCount int
	}
	accs := map[string]*acc{}
	// Per-cluster: which ASN clusters its own announcements use "from
	// inside" — an origin is foreign when the record's ASN cluster is not
	// associated with any prefix whose origin org is the owner itself.
	// Approximation: an origin is "own" when the majority of that ASN
	// cluster's announcements across the dataset belong to this final
	// cluster.
	originHome := map[string]map[string]int{} // asnCluster -> finalCluster -> count
	for i := range ds.NumRecords() {
		r := ds.RecordAt(i)
		if r.ASNCluster == "" || r.FinalCluster == "" {
			continue
		}
		m := originHome[r.ASNCluster]
		if m == nil {
			m = map[string]int{}
			originHome[r.ASNCluster] = m
		}
		m[r.FinalCluster]++
	}
	homeOf := func(asnCluster string) string {
		best, bestN, total := "", 0, 0
		for fc, n := range originHome[asnCluster] {
			total += n
			if n > bestN || (n == bestN && fc < best) {
				best, bestN = fc, n
			}
		}
		// A home needs evidence: at least two announcements and a strict
		// majority. An AS announcing a single block (the dedicated-lessee
		// fingerprint) or splitting evenly between two owners has no
		// home; the deterministic tie-break keeps runs reproducible.
		if total < 2 || 2*bestN <= total {
			return ""
		}
		return best
	}
	for i := range ds.NumRecords() {
		r := ds.RecordAt(i)
		if !r.Prefix.Addr().Is4() || r.FinalCluster == "" {
			continue
		}
		a := accs[r.FinalCluster]
		if a == nil {
			a = &acc{origins: map[string]bool{}}
			accs[r.FinalCluster] = a
		}
		a.v4 = append(a.v4, r.Prefix)
		a.routedCount++
		if r.ASNCluster != "" {
			a.origins[r.ASNCluster] = true
			if home := homeOf(r.ASNCluster); home != r.FinalCluster {
				a.foreign++
			}
		}
		if r.HasDistinctCustomer() {
			a.subDeleg++
		}
	}
	var out []Candidate
	for id, a := range accs {
		if a.routedCount < opts.MinPrefixes || len(a.origins) < opts.MinOrigins {
			continue
		}
		foreignShare := float64(a.foreign) / float64(a.routedCount)
		if foreignShare < opts.MinForeignShare {
			continue
		}
		c, ok := ds.ClusterByID(id)
		if !ok {
			continue
		}
		cand := Candidate{
			Cluster:            c,
			V4Prefixes:         a.routedCount,
			DistinctOrigins:    len(a.origins),
			ForeignOriginShare: foreignShare,
			SubDelegatedShare:  float64(a.subDeleg) / float64(a.routedCount),
			Score:              foreignShare * float64(len(a.origins)),
		}
		out = append(out, cand)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Cluster.ID < out[j].Cluster.ID
	})
	return out, nil
}

// V4Addresses returns a candidate's routed IPv4 address total.
func (c *Candidate) V4Addresses() float64 {
	var v4 []netip.Prefix
	for _, p := range c.Cluster.Prefixes {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		}
	}
	return netx.TotalAddresses(v4)
}
