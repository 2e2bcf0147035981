// Package bgp provides the BGP substrate Prefix2Org's routed-prefix view
// is built from: a per-peer RIB that collectors maintain by applying
// UPDATEs, an MRT-style binary snapshot format for RIB dumps, and the
// aggregated prefix → origin-ASN table with the paper's specificity
// filters (§4.1: drop IPv4 less specific than /8 and IPv6 less specific
// than /16).
//
// The synthetic world plays the role of the RouteViews / RIPE RIS
// ecosystem: it synthesizes UPDATE streams from peers, collectors apply
// them in process, and the pipeline reads the merged dump exactly as it
// would read a BGPStream-produced snapshot.
package bgp

import "net/netip"

// Update is a BGP UPDATE restricted to what collectors need: announced
// NLRI with an AS path, and withdrawn routes.
type Update struct {
	Withdrawn []netip.Prefix
	ASPath    []uint32
	NLRI      []netip.Prefix
}

// Origin returns the last ASN of the AS path — the origin AS in BGP.
func (u *Update) Origin() (uint32, bool) {
	if len(u.ASPath) == 0 {
		return 0, false
	}
	return u.ASPath[len(u.ASPath)-1], true
}
