// Package rpki models the Resource Public Key Infrastructure objects
// Prefix2Org consumes: Resource Certificates (RCs), trust anchors, and
// Route Origin Authorizations (ROAs).
//
// Prefix2Org uses RPKI in two ways (§4.3, §5.3.2 and §8.2 of the paper):
//
//  1. The list of prefixes inside one Resource Certificate identifies a
//     common management account in the RIR system. The pipeline asks, for
//     every routed prefix, for the *child-most* RC containing it, and uses
//     that certificate's identity to group prefixes under shared
//     management (the R clusters).
//  2. ROAs drive the §8.2 case study comparing AS-centric and
//     prefix-centric views of RPKI adoption, with RFC 6811-style
//     origin validation semantics.
//
// The certificate tree mirrors the deployed hierarchy: each RIR is a
// trust anchor; RIRs issue member RCs listing the member's direct
// delegations; NIRs receive an RC for their whole pool and either issue
// child RCs to their customers (JPNIC, TWNIC, KRNIC, CNNIC, IDNIC,
// NIC.br) or keep a single RC and sign ROAs on customers' behalf (IRINN,
// VNNIC); and RIPE's non-member legacy space is lumped into one shared
// certificate. Validation enforces the RFC 6487 containment rule: a
// certificate's resources must be a subset of its issuer's.
package rpki

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Certificate is one RPKI Resource Certificate.
type Certificate struct {
	// SKI is the Subject Key Identifier, the certificate's identity in
	// the tree ("29:92:C2:..." form).
	SKI string
	// AKI is the Authority Key Identifier — the SKI of the issuing
	// certificate. Empty for trust anchors.
	AKI string
	// Subject names the resource-holding account (not necessarily a
	// legal organization name; RIR member handles are typical).
	Subject string
	// Registry is the trust-anchor RIR (or the NIR operating the cert).
	Registry alloc.Registry
	// Resources are the IP blocks the certificate attests.
	Resources []netip.Prefix
	// TrustAnchor marks the RIR root certificates. They anchor
	// containment validation but do not identify a management account:
	// ChildMostRC and Covered skip them, mirroring how the paper counts
	// a prefix as "present in Resource Certificates" only when a member
	// or NIR certificate lists it.
	TrustAnchor bool
}

// ROA is a Route Origin Authorization: origin AS authorized to announce
// prefix up to MaxLength.
type ROA struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       uint32
	// CertSKI identifies the Resource Certificate under which the ROA
	// was signed.
	CertSKI string
}

// SKIOf derives a deterministic SKI for a subject and its resources: a
// SHA-256-based fingerprint rendered in the familiar colon-separated hex
// form. Real SKIs hash the public key; a content hash preserves the only
// property the pipeline relies on — distinct accounts get distinct,
// stable identifiers.
func SKIOf(registry alloc.Registry, subject string, resources []netip.Prefix) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s", registry, subject)
	cp := make([]netip.Prefix, len(resources))
	copy(cp, resources)
	netx.Sort(cp)
	for _, p := range cp {
		fmt.Fprintf(h, "|%s", p)
	}
	sum := h.Sum(nil)
	parts := make([]string, 10)
	for i := range parts {
		parts[i] = fmt.Sprintf("%02X", sum[i])
	}
	return strings.Join(parts, ":")
}

// Repository is a set of certificates and ROAs forming one RPKI snapshot
// (the analogue of an RPKIviews dump).
type Repository struct {
	Certs []Certificate
	ROAs  []ROA

	bydSKI map[string]*Certificate
	// certIndex is the certificate side of the built repository.
	certIndex *CertIndex
	// roaIndex maps ROA prefixes to the ROAs at that prefix, for origin
	// validation and coverage queries.
	roaIndex *lpm.Groups[ROA]
	depth    map[string]int
}

// CertIndex is the certificate side of a built Repository: its
// certificates and the index of their resources that ChildMostRC and
// Covered walk. It is all of RPKI that prefix-to-organization mapping
// reads, so a holder that keeps only the CertIndex lets the ROAs, their
// index and the repository's maps go. A CertIndex is never written after
// Build makes it: any number of goroutines may share one. The nil
// CertIndex, an unbuilt repository's, lists no certificate.
type CertIndex struct {
	certs []Certificate
	// cover maps resource prefixes to the certificates listing them.
	cover *lpm.Groups[certResource]
}

// certResource is one cover item: a certificate listed at one of its
// resources, with its tree depth at hand for ChildMostRC.
type certResource struct {
	resource netip.Prefix
	cert     *Certificate
	depth    int
}

// NewRepository returns an empty repository.
func NewRepository() *Repository { return &Repository{} }

// AddCert appends c. Call Build before querying.
func (r *Repository) AddCert(c Certificate) { r.Certs = append(r.Certs, c) }

// AddROA appends roa. Call Build before querying.
func (r *Repository) AddROA(roa ROA) { r.ROAs = append(r.ROAs, roa) }

// Build indexes the repository and validates the certificate tree:
// every non-root certificate's AKI must resolve, its resources must be a
// subset of its issuer's, and the SKI graph must be acyclic.
func (r *Repository) Build() error {
	r.bydSKI = make(map[string]*Certificate, len(r.Certs))
	for i := range r.Certs {
		c := &r.Certs[i]
		if c.SKI == "" {
			return fmt.Errorf("rpki: certificate %q has empty SKI", c.Subject)
		}
		if _, dup := r.bydSKI[c.SKI]; dup {
			return fmt.Errorf("rpki: duplicate SKI %s", c.SKI)
		}
		r.bydSKI[c.SKI] = c
	}
	// Depth + cycle check: a memoized walk up the issuer links. A
	// certificate is marked before its issuer is visited, so meeting the
	// mark again is a cycle.
	const visiting = -1
	r.depth = make(map[string]int, len(r.Certs))
	var depthOf func(ski string) (int, error)
	depthOf = func(ski string) (int, error) {
		if d, ok := r.depth[ski]; ok {
			if d == visiting {
				return 0, fmt.Errorf("rpki: certificate cycle through %s", ski)
			}
			return d, nil
		}
		c := r.bydSKI[ski]
		if c.AKI == "" {
			r.depth[ski] = 0
			return 0, nil
		}
		parent, ok := r.bydSKI[c.AKI]
		if !ok {
			return 0, fmt.Errorf("rpki: certificate %s references unknown issuer %s", ski, c.AKI)
		}
		r.depth[ski] = visiting
		pd, err := depthOf(parent.SKI)
		if err != nil {
			return 0, err
		}
		r.depth[ski] = pd + 1
		return pd + 1, nil
	}
	for i := range r.Certs {
		if _, err := depthOf(r.Certs[i].SKI); err != nil {
			return err
		}
	}
	// Containment: child resources ⊆ parent resources.
	for _, c := range r.Certs {
		if c.AKI == "" {
			continue
		}
		parent := r.bydSKI[c.AKI]
		for _, p := range c.Resources {
			if !coveredByAny(parent.Resources, p) {
				return fmt.Errorf("rpki: certificate %s (%s) resource %s not covered by issuer %s",
					c.SKI, c.Subject, p, parent.SKI)
			}
		}
	}
	// ROAs must be signed under a known certificate covering their prefix.
	for _, roa := range r.ROAs {
		c, ok := r.bydSKI[roa.CertSKI]
		if !ok {
			return fmt.Errorf("rpki: ROA %s AS%d signed under unknown certificate %s", roa.Prefix, roa.ASN, roa.CertSKI)
		}
		if !coveredByAny(c.Resources, roa.Prefix) {
			return fmt.Errorf("rpki: ROA %s AS%d not covered by certificate %s resources", roa.Prefix, roa.ASN, roa.CertSKI)
		}
		if roa.MaxLength < roa.Prefix.Bits() || roa.MaxLength > roa.Prefix.Addr().BitLen() {
			return fmt.Errorf("rpki: ROA %s AS%d has invalid maxLength %d", roa.Prefix, roa.ASN, roa.MaxLength)
		}
	}
	// Cover index for child-most queries (trust anchors excluded: they
	// cover whole registry pools, not a management account). It points
	// into r.Certs.
	var listed []certResource
	for i := range r.Certs {
		c := &r.Certs[i]
		if c.TrustAnchor {
			continue
		}
		for _, p := range c.Resources {
			listed = append(listed, certResource{p, c, r.depth[c.SKI]})
		}
	}
	r.certIndex = &CertIndex{certs: r.Certs, cover: lpm.Group(listed, func(cr *certResource) netip.Prefix { return cr.resource })}
	// ROA index for origin validation and coverage queries.
	r.roaIndex = lpm.Group(r.ROAs, func(roa *ROA) netip.Prefix { return roa.Prefix })
	return nil
}

func coveredByAny(resources []netip.Prefix, p netip.Prefix) bool {
	for _, res := range resources {
		if netx.Contains(res, p) {
			return true
		}
	}
	return false
}

// CertBySKI returns the certificate with the given SKI.
func (r *Repository) CertBySKI(ski string) (*Certificate, bool) {
	c, ok := r.bydSKI[ski]
	return c, ok
}

// CertIndex returns the certificate side of the repository, nil until
// Build succeeds.
func (r *Repository) CertIndex() *CertIndex { return r.certIndex }

// Certs returns the certificates, in the repository's order. Callers
// must not modify them.
func (x *CertIndex) Certs() []Certificate {
	if x == nil {
		return nil
	}
	return x.certs
}

// ChildMostRC returns the deepest certificate in the tree whose resource
// list covers p — the paper's "child-most RC in which a prefix is
// present". Among certificates at equal depth, the one whose covering
// resource is most specific wins; remaining ties break on SKI for
// determinism. ok is false when no certificate covers p (e.g. ARIN space
// whose holder never opted in to RPKI).
func (x *CertIndex) ChildMostRC(p netip.Prefix) (*Certificate, bool) {
	if x == nil {
		return nil, false
	}
	var (
		best      *Certificate
		bestDepth int
		bestBits  int
	)
	for m, ok := x.cover.Index().Match(p); ok; m, ok = m.Parent() {
		bits := m.Bits()
		for _, cr := range x.cover.At(m.Val()) {
			switch {
			case best == nil,
				cr.depth > bestDepth,
				cr.depth == bestDepth && bits > bestBits,
				cr.depth == bestDepth && bits == bestBits && cr.cert.SKI < best.SKI:
				best, bestDepth, bestBits = cr.cert, cr.depth, bits
			}
		}
	}
	return best, best != nil
}

// Covered reports whether any certificate's resources cover p. The paper
// reports 88% of routed IPv4 (96.7% IPv6) prefixes present in RCs.
func (x *CertIndex) Covered(p netip.Prefix) bool {
	_, ok := x.ChildMostRC(p)
	return ok
}

// ValidationState is the RFC 6811 origin-validation outcome.
type ValidationState int

const (
	// StateNotFound: no ROA covers the prefix.
	StateNotFound ValidationState = iota
	// StateValid: a covering ROA authorizes the origin at this length.
	StateValid
	// StateInvalid: covering ROAs exist but none authorizes the origin
	// (or the announcement is more specific than maxLength allows).
	StateInvalid
)

func (s ValidationState) String() string {
	switch s {
	case StateValid:
		return "Valid"
	case StateInvalid:
		return "Invalid"
	default:
		return "NotFound"
	}
}

// Validate runs RFC 6811 origin validation for an announcement of p by
// origin.
func (r *Repository) Validate(p netip.Prefix, origin uint32) ValidationState {
	if r.roaIndex == nil {
		return StateNotFound
	}
	state := StateNotFound
	for m, ok := r.roaIndex.Index().Match(p); ok; m, ok = m.Parent() {
		for _, roa := range r.roaIndex.At(m.Val()) {
			if roa.ASN == origin && p.Bits() <= roa.MaxLength {
				return StateValid
			}
		}
		state = StateInvalid // covered, by groups that are never empty
	}
	return state
}

// HasROA reports whether any ROA covers p (regardless of origin) — the
// "ROA coverage" notion used in §8.2 and the Internet2 RPKI Ready Report.
func (r *Repository) HasROA(p netip.Prefix) bool {
	if r.roaIndex == nil {
		return false
	}
	_, ok := r.roaIndex.Index().Match(p)
	return ok
}

// SortObjects puts certificates and ROAs in a deterministic order
// (registry, subject, SKI; then prefix, ASN). Call it before Build: the
// indexes point into Certs.
func (r *Repository) SortObjects() {
	sort.Slice(r.Certs, func(i, j int) bool {
		a, b := r.Certs[i], r.Certs[j]
		if a.Registry != b.Registry {
			return a.Registry < b.Registry
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.SKI < b.SKI
	})
	sort.Slice(r.ROAs, func(i, j int) bool {
		a, b := r.ROAs[i], r.ROAs[j]
		if c := netx.Compare(a.Prefix, b.Prefix); c != 0 {
			return c < 0
		}
		return a.ASN < b.ASN
	})
}
