package synth

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

// OrgKind classifies synthetic organizations by their role in the
// delegation ecosystem.
type OrgKind int

const (
	// KindLarge is a multinational cloud/carrier: many prefixes, several
	// legal names across registries, several ASNs.
	KindLarge OrgKind = iota
	// KindISP is a mid-size provider / LIR: sub-delegates to customers.
	KindISP
	// KindSmall is an end-user org with one or two direct delegations.
	KindSmall
	// KindCustomer holds only sub-delegated space (Delegated Customer
	// only; never a Direct Owner).
	KindCustomer
	// KindLeasing is an IP-leasing entity: a large pool of directly held
	// prefixes announced by many unrelated customer ASNs.
	KindLeasing
	// KindNoASNHolder holds substantial direct space but operates no ASN;
	// provider ASes originate its prefixes (§8.1's Wireless Data case).
	KindNoASNHolder
)

func (k OrgKind) String() string {
	switch k {
	case KindLarge:
		return "large"
	case KindISP:
		return "isp"
	case KindSmall:
		return "small"
	case KindCustomer:
		return "customer"
	case KindLeasing:
		return "leasing"
	default:
		return "no-asn-holder"
	}
}

// Org is one synthetic organization, with its ground-truth attributes.
type Org struct {
	ID        int
	Kind      OrgKind
	Canonical string // the organization's "true" identity
	// LegalNames are the WHOIS name variants the org registers under;
	// LegalNames[0] is the primary.
	LegalNames []string
	// Registries lists the registries the org holds direct delegations
	// from, aligned with LegalNames (variant i registers at Registries[i]).
	Registries []alloc.Registry
	Country    string
	ASNs       []uint32
	// RPKIAdopter orgs request certificates and issue ROAs for the space
	// they directly hold.
	RPKIAdopter bool
	// Provider is the org (an ISP) whose AS originates this org's
	// prefixes when it has no ASN of its own, and who sub-delegated space
	// to it if it is a customer.
	Provider *Org

	// DirectV4/DirectV6 are the org's direct delegations (it is the
	// Direct Owner), per legal-name index.
	DirectV4, DirectV6 [][]netip.Prefix
	// SubV4/SubV6 are blocks sub-delegated TO this org (it is a
	// Delegated Customer).
	SubV4, SubV6 []netip.Prefix
}

// HasASN reports whether the org operates at least one ASN.
func (o *Org) HasASN() bool { return len(o.ASNs) > 0 }

// --- name generation ------------------------------------------------------

// Stems combine into pronounceable, collision-prone company names. The
// sector words are deliberately drawn from the vocabulary the cleaning
// pipeline knows how to strip (frequent words, spelling variants).
var (
	stemA = []string{
		"lumi", "vexa", "nor", "tel", "sky", "blue", "terra", "alta", "novi",
		"quan", "hyper", "inter", "uni", "digi", "proxi", "zen", "aero",
		"strato", "omni", "meri", "vega", "kilo", "delta", "astra", "helio",
		"arc", "cyber", "data", "net", "volt", "flux", "opti", "metro",
		"pan", "geo", "iso", "mono", "poly", "ultra", "micro", "macro",
	}
	stemB = []string{
		"via", "net", "com", "link", "wave", "path", "core", "gate", "port",
		"line", "span", "grid", "mesh", "node", "loop", "dial", "byte",
		"bit", "cast", "call", "band", "beam", "cell", "dock", "edge",
		"fiber", "host", "peer", "route", "switch", "trunk", "wire",
	}
	sectorWords = []string{
		"Telecom", "Telecommunications", "Networks", "Network", "Cloud",
		"Hosting", "Internet", "Communications", "Communication", "Data",
		"Services", "Systems", "Solutions", "Technology", "Technologies",
		"Broadband", "Wireless", "Digital", "Online", "Connect",
	}
	countryWordByRegistry = map[alloc.Registry][]string{
		alloc.ARIN:    {"USA", "Canada", "America"},
		alloc.RIPE:    {"Germany", "Deutschland", "France", "UK", "Netherlands", "Sweden", "Poland", "Italia", "Espana"},
		alloc.APNIC:   {"Australia", "India", "Singapore", "Hong Kong", "Malaysia", "Thailand"},
		alloc.JPNIC:   {"Japan", "Tokyo", "Osaka"},
		alloc.KRNIC:   {"Korea", "Seoul"},
		alloc.TWNIC:   {"Taiwan", "Taipei"},
		alloc.LACNIC:  {"Argentina", "Chile", "Peru", "Colombia", "Mexico"},
		alloc.NICBR:   {"Brasil", "Sao Paulo"},
		alloc.NICMX:   {"Mexico", "Monterrey"},
		alloc.AFRINIC: {"Nigeria", "Kenya", "South Africa", "Egypt", "Ghana"},
		alloc.CNNIC:   {"China", "Beijing", "Shanghai"},
		alloc.IDNIC:   {"Indonesia", "Jakarta"},
		alloc.IRINN:   {"India", "Mumbai", "Delhi"},
		alloc.VNNIC:   {"Vietnam", "Hanoi"},
	}
	suffixByRegistry = map[alloc.Registry][]string{
		alloc.ARIN:    {"Inc", "LLC", "Corp", "Inc."},
		alloc.RIPE:    {"GmbH", "Ltd", "B.V.", "AB", "S.A.", "SAS", "s.r.o."},
		alloc.APNIC:   {"Pty Ltd", "Pte Ltd", "Pvt Ltd", "Limited"},
		alloc.JPNIC:   {"KK", "K.K.", "Co Ltd"},
		alloc.KRNIC:   {"Co Ltd", "Inc"},
		alloc.TWNIC:   {"Co Ltd", "Ltd"},
		alloc.LACNIC:  {"S.A.", "SA", "Ltda", "S.A.C."},
		alloc.NICBR:   {"Ltda", "S.A."},
		alloc.NICMX:   {"SA de CV", "S.A."},
		alloc.AFRINIC: {"Ltd", "PLC", "Limited"},
		alloc.CNNIC:   {"Co Ltd", "Ltd"},
		alloc.IDNIC:   {"PT", "Tbk"},
		alloc.IRINN:   {"Pvt Ltd", "Limited"},
		alloc.VNNIC:   {"JSC", "Co Ltd"},
	}
	countryCodeByRegistry = map[alloc.Registry][]string{
		alloc.ARIN:    {"US", "CA"},
		alloc.RIPE:    {"DE", "FR", "GB", "NL", "SE", "PL", "IT", "ES"},
		alloc.APNIC:   {"AU", "IN", "SG", "HK", "MY", "TH"},
		alloc.JPNIC:   {"JP"},
		alloc.KRNIC:   {"KR"},
		alloc.TWNIC:   {"TW"},
		alloc.LACNIC:  {"AR", "CL", "PE", "CO"},
		alloc.NICBR:   {"BR"},
		alloc.NICMX:   {"MX"},
		alloc.AFRINIC: {"NG", "KE", "ZA", "EG", "GH"},
		alloc.CNNIC:   {"CN"},
		alloc.IDNIC:   {"ID"},
		alloc.IRINN:   {"IN"},
		alloc.VNNIC:   {"VN"},
	}
)

// stemOf synthesizes the organization's distinctive stem, e.g. "Lumivia".
func stemOf(rng *rand.Rand) string {
	s := stemA[rng.Intn(len(stemA))] + stemB[rng.Intn(len(stemB))]
	return strings.ToUpper(s[:1]) + s[1:]
}

// legalName renders one WHOIS name variant for an org stem at a registry.
// Variants differ in sector word, geographic insert and legal suffix —
// exactly the variation the cleaning pipeline is designed to collapse.
func legalName(rng *rand.Rand, stem string, reg alloc.Registry, withGeo bool) string {
	parts := []string{stem}
	if rng.Intn(100) < 85 {
		parts = append(parts, sectorWords[rng.Intn(len(sectorWords))])
	}
	if withGeo {
		geos := countryWordByRegistry[reg]
		parts = append(parts, geos[rng.Intn(len(geos))])
	}
	sfx := suffixByRegistry[reg]
	if rng.Intn(100) < 90 {
		parts = append(parts, sfx[rng.Intn(len(sfx))])
	}
	return strings.Join(parts, " ")
}

// pickRegistry draws a registry with realistic zone weights; NIR shares
// within APNIC and LACNIC reflect the NIR-heavy zones.
func pickRegistry(rng *rand.Rand) alloc.Registry {
	switch r := rng.Intn(100); {
	case r < 27: // ARIN
		return alloc.ARIN
	case r < 57: // RIPE
		return alloc.RIPE
	case r < 79: // APNIC zone
		switch n := rng.Intn(100); {
		case n < 14:
			return alloc.JPNIC
		case n < 26:
			return alloc.KRNIC
		case n < 34:
			return alloc.TWNIC
		case n < 44:
			return alloc.CNNIC
		case n < 50:
			return alloc.IDNIC
		case n < 56:
			return alloc.IRINN
		case n < 60:
			return alloc.VNNIC
		default:
			return alloc.APNIC
		}
	case r < 92: // LACNIC zone
		switch n := rng.Intn(100); {
		case n < 30:
			return alloc.NICBR
		case n < 40:
			return alloc.NICMX
		default:
			return alloc.LACNIC
		}
	default:
		return alloc.AFRINIC
	}
}

func orgCountry(rng *rand.Rand, reg alloc.Registry) string {
	ccs := countryCodeByRegistry[reg]
	if len(ccs) == 0 {
		ccs = countryCodeByRegistry[alloc.Parent(reg)]
	}
	if len(ccs) == 0 {
		return "ZZ"
	}
	return ccs[rng.Intn(len(ccs))]
}

// noisyVariants decorates a WHOIS organization-name string the way messy
// registry data does: stray punctuation, double spaces, case damage,
// accented characters, spelling variants, generic remark prefixes, and
// trailing street addresses. The cleaning pipeline (§5.3.1) is designed
// to undo exactly these; applying them to a fraction of records gives
// Table 2's regex/spelling steps real work and exercises the clustering
// signals (a noisy variant lands in its own W cluster until RPKI/ASN
// evidence reunites it).
func noisyVariant(rng *rand.Rand, name string) string {
	switch rng.Intn(8) {
	case 0: // shouting
		return strings.ToUpper(name)
	case 1: // doubled whitespace
		return strings.Replace(name, " ", "  ", 1)
	case 2: // stray punctuation
		return name + " ."
	case 3: // generic remark prefix (regex-drop fodder)
		return "IP pool reserved for " + name
	case 4: // trailing street address (numeric-drop fodder)
		return fmt.Sprintf("%s %d", name, 100+rng.Intn(9000))
	case 5: // spelling variant
		r := strings.NewReplacer("Telecom", "Telecommunications", "Center", "Centre", "Technology", "Tech")
		return r.Replace(name)
	case 6: // accent damage
		return strings.Replace(name, "a", "á", 1)
	default: // comma before the suffix
		if i := strings.LastIndex(name, " "); i > 0 {
			return name[:i] + "," + name[i:]
		}
		return name
	}
}

// netName fabricates a registry network handle.
func netName(stem string, i int) string {
	return fmt.Sprintf("%s-NET-%d", strings.ToUpper(stem), i)
}
