package daemon

import (
	"net/netip"
	"strings"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// Kind is a query form. API.md defines three — an address, a prefix, an
// organization — and every front end answers the same three.
type Kind uint8

const (
	// KindAny asks Resolve to pick the form from the text, the WHOIS
	// convention (one bare line, no route to name the form): a "/"
	// makes it a prefix, a parseable address an address, anything else
	// an organization.
	KindAny Kind = iota
	KindAddr
	KindPrefix
	KindOrg
	// KindBad is what a query that is empty, or does not parse as its
	// form, resolves to.
	KindBad
)

// String is the query type front ends report in telemetry and on the
// wire ("addr", "prefix", "org", "bad").
func (k Kind) String() string {
	return [...]string{"any", "addr", "prefix", "org", "bad"}[k]
}

// Outcome classes of a resolved query, as recorded on spans,
// /debug/queries records and the HTTP envelope.
const (
	OutcomeMatch    = "match"
	OutcomeCovering = "covering"
	OutcomeNoMatch  = "no_match"
	OutcomeError    = "error"
)

// Answer is one resolved query: what form it took, how it ended, and
// the record or cluster that answers it. Front ends only encode it.
type Answer struct {
	// Kind is the resolved form — never KindAny; KindBad with
	// OutcomeError when the text is empty or does not parse.
	Kind    Kind
	Outcome string
	// Record answers address and prefix queries, Cluster organization
	// queries; both are nil unless Outcome is a match (or covering).
	Record  *prefix2org.Record
	Cluster *prefix2org.Cluster
}

// Resolve answers one query of the given form against ds — the one
// lookup ladder under every front end: parse; an address by longest
// match; a prefix exactly, falling back to the most specific covering
// routed prefix; an organization by final-cluster ID, then by any exact
// WHOIS owner name. The parse and lookup phases are marked on sp (nil
// for unsampled queries). Address and prefix queries allocate nothing.
//
//p2o:hotpath
func Resolve(ds *prefix2org.Dataset, kind Kind, text string, sp *obs.QuerySpan) Answer {
	ans := Answer{Kind: kind, Outcome: OutcomeError}
	var (
		addr netip.Addr
		pfx  netip.Prefix
		err  error
	)
	switch {
	case text == "":
		ans.Kind = KindBad
	case kind == KindPrefix, kind == KindAny && strings.Contains(text, "/"):
		ans.Kind = KindPrefix
		pfx, err = netip.ParsePrefix(text)
	case kind == KindAddr:
		addr, err = netip.ParseAddr(text)
	case kind == KindAny:
		ans.Kind = KindOrg
		if a, aerr := netip.ParseAddr(text); aerr == nil {
			ans.Kind, addr = KindAddr, a
		}
	}
	sp.Mark(obs.PhaseParse)
	if err != nil || ans.Kind == KindBad {
		ans.Kind = KindBad
		return ans
	}
	ans.Outcome = OutcomeMatch
	switch ans.Kind {
	case KindAddr:
		ans.Record, _ = ds.LookupAddr(addr)
	case KindPrefix:
		var ok bool
		if ans.Record, ok = ds.Lookup(pfx); !ok {
			ans.Record, _ = ds.LookupCovering(pfx)
			ans.Outcome = OutcomeCovering
		}
	case KindOrg:
		var ok bool
		if ans.Cluster, ok = ds.ClusterByID(text); !ok {
			ans.Cluster, _ = ds.ClusterOfOwner(text)
		}
	}
	sp.Mark(obs.PhaseLookup)
	if ans.Record == nil && ans.Cluster == nil {
		ans.Outcome = OutcomeNoMatch
	}
	return ans
}
