// Package alloc encodes the paper's taxonomy of IP allocation types.
//
// The five RIRs use 22 distinct allocation-type keywords (with IPv4/IPv6
// differences) to label WHOIS address-block records. Prefix2Org reduces
// them to three operational rights —
//
//	R1: the right to change upstream provider (provider independence)
//	R2: the right to further sub-delegate the address space
//	R3: the authority to issue RPKI certificates
//
// — and from those derives two macro ownership levels: Direct Owner and
// Delegated Customer (§2.2, §5.1 and Tables 1, 8–12 of the paper). This
// package is the authoritative, exhaustively-tested encoding of those
// tables, plus the paper's two "modified" types for legacy space that
// cannot issue RPKI certificates (ARIN Allocation-Legacy and RIPE
// Legacy-Not-Sponsored) and the National Internet Registry rules (direct
// NIR delegations carry the same rights as direct RIR delegations).
package alloc

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Registry identifies a Regional or National Internet Registry.
type Registry string

// The five RIRs.
const (
	ARIN    Registry = "ARIN"
	RIPE    Registry = "RIPE"
	APNIC   Registry = "APNIC"
	LACNIC  Registry = "LACNIC"
	AFRINIC Registry = "AFRINIC"
)

// National Internet Registries. Seven operate under APNIC and two under
// LACNIC. NIR delegations use the parent RIR's allocation types and direct
// NIR delegations carry the same rights as direct RIR delegations (§5.1).
const (
	JPNIC Registry = "JPNIC"
	TWNIC Registry = "TWNIC"
	KRNIC Registry = "KRNIC"
	CNNIC Registry = "CNNIC"
	IDNIC Registry = "IDNIC"
	IRINN Registry = "IRINN"
	VNNIC Registry = "VNNIC"
	NICBR Registry = "NIC.br"
	NICMX Registry = "NIC.mx"
)

// RIRs lists the five Regional Internet Registries.
var RIRs = []Registry{ARIN, RIPE, APNIC, LACNIC, AFRINIC}

// NIRs lists the nine National Internet Registries.
var NIRs = []Registry{JPNIC, TWNIC, KRNIC, CNNIC, IDNIC, IRINN, VNNIC, NICBR, NICMX}

// Parent returns the RIR a registry's allocation-type vocabulary comes
// from: the registry itself for RIRs, the parent RIR for NIRs.
func Parent(r Registry) Registry {
	switch r {
	case JPNIC, TWNIC, KRNIC, CNNIC, IDNIC, IRINN, VNNIC:
		return APNIC
	case NICBR, NICMX:
		return LACNIC
	default:
		return r
	}
}

// IsNIR reports whether r is a National Internet Registry.
func IsNIR(r Registry) bool { return Parent(r) != r }

// Rights captures the three operational rights of §2.2.
type Rights struct {
	ProviderIndependent bool // R1: may change upstream provider
	SubDelegate         bool // R2: may further sub-delegate
	IssueRPKI           bool // R3: may issue RPKI certificates
}

// Ownership is the paper's two macro levels of control.
type Ownership int

const (
	// DelegatedCustomer holds sub-delegated space with restricted rights.
	DelegatedCustomer Ownership = iota
	// DirectOwner holds a direct RIR/NIR delegation with the most
	// authoritative control over the block.
	DirectOwner
)

func (o Ownership) String() string {
	if o == DirectOwner {
		return "Direct Owner"
	}
	return "Delegated Customer"
}

// Family selects an address family where allocation types differ.
type Family int

const (
	IPv4 Family = iota
	IPv6
)

func (f Family) String() string {
	if f == IPv6 {
		return "IPv6"
	}
	return "IPv4"
}

// Type is one allocation type as used by one RIR's WHOIS database,
// together with its rights and the derived ownership level.
type Type struct {
	Registry Registry
	Name     string // canonical display name, e.g. "Allocated PA"
	Rights   Rights
	Level    Ownership
	// V4Only / V6Only mark types that exist in only one family
	// (Table 11/12 footnotes: e.g. RIPE Legacy is IPv4 only,
	// Allocated-By-RIR is IPv6 only).
	V4Only, V6Only bool
	// Modified marks the two types Prefix2Org introduces to distinguish
	// legacy space without an RIR agreement (no R3).
	Modified bool
	// Depth orders Delegated-Customer types hierarchically when a prefix
	// carries several DC records (§5.2): 0 for Direct Owner types, then
	// increasing for each sub-delegation layer (ARIN: Allocation=0,
	// Re-Allocation=1, Reassignment=2).
	Depth int
}

// DirectOwner reports whether this type designates the Direct Owner level.
func (t Type) DirectOwner() bool { return t.Level == DirectOwner }

// AvailableFor reports whether the type exists for family f.
func (t Type) AvailableFor(f Family) bool {
	if t.V4Only && f == IPv6 {
		return false
	}
	if t.V6Only && f == IPv4 {
		return false
	}
	return true
}

func (t Type) String() string { return fmt.Sprintf("%s/%s", t.Registry, t.Name) }

// rights shorthands used in the tables below.
var (
	rFull = Rights{ProviderIndependent: true, SubDelegate: true, IssueRPKI: true}  // ✓✓✓
	rPIPA = Rights{ProviderIndependent: true, SubDelegate: false, IssueRPKI: true} // ✓✗✓ (PI assignment)
	rLgcy = Rights{ProviderIndependent: true, SubDelegate: true, IssueRPKI: false} // ✓✓✗ (legacy, no RIR agreement)
	rSub  = Rights{ProviderIndependent: false, SubDelegate: true, IssueRPKI: false}
	rLeaf = Rights{}
)

// types is the exhaustive encoding of Tables 8–12. Every entry is keyed by
// registry and the normalized status keyword(s) found in WHOIS data.
var types = []Type{
	// Table 8 — ARIN.
	{Registry: ARIN, Name: "Allocation", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: ARIN, Name: "Allocation-Legacy", Rights: rLgcy, Level: DirectOwner, Modified: true, Depth: 0},
	{Registry: ARIN, Name: "Re-Allocation", Rights: rSub, Level: DelegatedCustomer, Depth: 1},
	{Registry: ARIN, Name: "Reassignment", Rights: rLeaf, Level: DelegatedCustomer, Depth: 2},

	// Table 9 — LACNIC. Directly Assigned blocks can (rarely) be
	// Reassigned, so Assigned carries R2.
	{Registry: LACNIC, Name: "Allocated", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: LACNIC, Name: "Reallocated", Rights: rSub, Level: DelegatedCustomer, Depth: 1},
	{Registry: LACNIC, Name: "Assigned", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: LACNIC, Name: "Reassigned", Rights: rLeaf, Level: DelegatedCustomer, Depth: 2},

	// Table 10 — APNIC.
	{Registry: APNIC, Name: "Allocated Portable", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: APNIC, Name: "Allocated Non-Portable", Rights: rSub, Level: DelegatedCustomer, Depth: 1},
	{Registry: APNIC, Name: "Assigned Portable", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: APNIC, Name: "Assigned Non-Portable", Rights: rLeaf, Level: DelegatedCustomer, Depth: 2},

	// Table 11 — RIPE.
	{Registry: RIPE, Name: "Allocated PA", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: RIPE, Name: "Assigned PI", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: RIPE, Name: "Sub-Allocated PA", Rights: rSub, Level: DelegatedCustomer, Depth: 1},
	{Registry: RIPE, Name: "Legacy", Rights: rFull, Level: DirectOwner, V4Only: true, Depth: 0},
	{Registry: RIPE, Name: "Legacy-Not-Sponsored", Rights: rLgcy, Level: DirectOwner, V4Only: true, Modified: true, Depth: 0},
	{Registry: RIPE, Name: "Allocated-Assigned PA", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: RIPE, Name: "Assigned Anycast", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: RIPE, Name: "Allocated-By-RIR", Rights: rFull, Level: DirectOwner, V6Only: true, Depth: 0},
	{Registry: RIPE, Name: "Allocated-By-LIR", Rights: rSub, Level: DelegatedCustomer, V6Only: true, Depth: 1},
	{Registry: RIPE, Name: "Assigned PA", Rights: rLeaf, Level: DelegatedCustomer, Depth: 2},
	{Registry: RIPE, Name: "Assigned", Rights: rLeaf, Level: DelegatedCustomer, V6Only: true, Depth: 2},
	{Registry: RIPE, Name: "Aggregated-By-LIR", Rights: rSub, Level: DelegatedCustomer, V6Only: true, Depth: 1},

	// Table 12 — AFRINIC.
	{Registry: AFRINIC, Name: "Allocated PA", Rights: rFull, Level: DirectOwner, Depth: 0},
	{Registry: AFRINIC, Name: "Assigned PI", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: AFRINIC, Name: "Sub-Allocated PA", Rights: rSub, Level: DelegatedCustomer, Depth: 1},
	{Registry: AFRINIC, Name: "Assigned Anycast", Rights: rPIPA, Level: DirectOwner, Depth: 0},
	{Registry: AFRINIC, Name: "Allocated-By-RIR", Rights: rFull, Level: DirectOwner, V6Only: true, Depth: 0},
	{Registry: AFRINIC, Name: "Assigned PA", Rights: rLeaf, Level: DelegatedCustomer, Depth: 2},
}

// index maps (parent registry, normalized keyword) to a type. Populated at
// init from types plus per-RIR keyword aliases seen in WHOIS data.
var index = map[Registry]map[string]Type{}

// Normalize folds a raw WHOIS status keyword to the form types are
// indexed under: lower case, '_' and '-' read as spaces, whitespace
// trimmed and collapsed. Two keywords name the same status exactly when
// their normalized forms are equal.
func Normalize(s string) string {
	return string(appendNormalized(nil, s))
}

// appendNormalized appends the normalized form of s to b[:0]-style
// scratch, so Lookup can probe the index without allocating.
func appendNormalized(b []byte, s string) []byte {
	gap := false // a separator run is pending between two words
	for _, r := range s {
		if r == '_' || r == '-' || unicode.IsSpace(r) {
			gap = len(b) > 0
			continue
		}
		if gap {
			b = append(b, ' ')
			gap = false
		}
		b = utf8.AppendRune(b, unicode.ToLower(r))
	}
	return b
}

func register(r Registry, keyword string, t Type) {
	m := index[r]
	if m == nil {
		m = map[string]Type{}
		index[r] = m
	}
	k := Normalize(keyword)
	if prev, dup := m[k]; dup && prev.Name != t.Name {
		panic(fmt.Sprintf("alloc: keyword %q registered for both %s and %s", k, prev.Name, t.Name))
	}
	m[k] = t
}

func init() {
	for _, t := range types {
		register(t.Registry, t.Name, t)
	}
	// Keyword aliases as they appear in raw WHOIS status/NetType fields.
	aliases := map[Registry]map[string]string{
		ARIN: {
			"Direct Allocation": "Allocation",
			"Reallocation":      "Re-Allocation",
			"Reassigned":        "Reassignment",
			"Direct Assignment": "Allocation", // ARIN direct assignments carry DO rights
		},
		RIPE: {
			"ALLOCATED PA":          "Allocated PA",
			"ASSIGNED PI":           "Assigned PI",
			"SUB-ALLOCATED PA":      "Sub-Allocated PA",
			"LEGACY":                "Legacy",
			"ALLOCATED-ASSIGNED PA": "Allocated-Assigned PA",
			"ASSIGNED ANYCAST":      "Assigned Anycast",
			"ALLOCATED-BY-RIR":      "Allocated-By-RIR",
			"ALLOCATED-BY-LIR":      "Allocated-By-LIR",
			"ASSIGNED PA":           "Assigned PA",
			"AGGREGATED-BY-LIR":     "Aggregated-By-LIR",
		},
		APNIC: {
			"ALLOCATED PORTABLE":     "Allocated Portable",
			"ALLOCATED NON-PORTABLE": "Allocated Non-Portable",
			"ASSIGNED PORTABLE":      "Assigned Portable",
			"ASSIGNED NON-PORTABLE":  "Assigned Non-Portable",
		},
		LACNIC: {
			"ALLOCATED":   "Allocated",
			"REALLOCATED": "Reallocated",
			"ASSIGNED":    "Assigned",
			"REASSIGNED":  "Reassigned",
		},
		AFRINIC: {
			"ALLOCATED PA":     "Allocated PA",
			"ASSIGNED PI":      "Assigned PI",
			"SUB-ALLOCATED PA": "Sub-Allocated PA",
			"ASSIGNED ANYCAST": "Assigned Anycast",
			"ALLOCATED-BY-RIR": "Allocated-By-RIR",
			"ASSIGNED PA":      "Assigned PA",
		},
	}
	for r, m := range aliases {
		for kw, canonical := range m {
			t, err := lookupCanonical(r, canonical)
			if err != nil {
				panic(err)
			}
			register(r, kw, t)
		}
	}
}

func lookupCanonical(r Registry, name string) (Type, error) {
	if t, ok := index[r][Normalize(name)]; ok {
		return t, nil
	}
	return Type{}, fmt.Errorf("alloc: unknown canonical type %s/%s", r, name)
}

// Lookup resolves a raw WHOIS status keyword for registry r (an RIR or
// NIR) and family f to its allocation type. NIR keywords resolve through
// the parent RIR's vocabulary; the resulting Type keeps the parent RIR as
// its Registry, since rights follow the parent's policy (§5.1).
func Lookup(r Registry, keyword string, f Family) (Type, error) {
	parent := Parent(r)
	var scratch [32]byte // longer keywords spill to the heap
	t, ok := index[parent][string(appendNormalized(scratch[:0], keyword))]
	if !ok {
		return Type{}, fmt.Errorf("alloc: registry %s: unknown allocation type %q", r, keyword)
	}
	if !t.AvailableFor(f) {
		return Type{}, fmt.Errorf("alloc: type %s is not used for %s delegations", t, f)
	}
	return t, nil
}

// All returns every allocation type for registry r (an RIR), in table
// order. It is the row source for Tables 8–12.
func All(r Registry) []Type {
	var out []Type
	for _, t := range types {
		if t.Registry == Parent(r) {
			out = append(out, t)
		}
	}
	return out
}

// Count returns the number of distinct allocation types used across all
// five RIRs, excluding the two Prefix2Org-modified legacy types. Types are
// distinct when they differ in keyword or in granted rights: RIPE and
// AFRINIC share six identical keyword/rights pairs (counted once), while
// LACNIC's "Assigned" (a Direct Owner type) is distinct from RIPE's IPv6
// "Assigned" (a terminal sub-delegation). The paper reports 22.
func Count() int {
	type key struct {
		name   string
		rights Rights
	}
	seen := map[key]bool{}
	for _, t := range types {
		if !t.Modified {
			seen[key{t.Name, t.Rights}] = true
		}
	}
	return len(seen)
}
