// Package synth generates a deterministic synthetic Internet — the data
// substitute for the paper's September 2024 WHOIS, BGP, RPKI, and AS2Org
// snapshots (see DESIGN.md §1).
//
// Generate builds a world of organizations with heavy-tailed delegation
// footprints, inconsistent legal names across registries, NIR zones,
// legacy space, sub-delegation chains, IP-leasing entities, holders
// without ASNs, provider-originated customer prefixes, a full RPKI
// certificate tree with partial adoption, and non-exhaustive public
// ground-truth lists. WriteDir serializes everything into the on-disk
// formats the real pipeline would consume (per-registry bulk WHOIS
// flavours, an MRT-style RIB, an RPKI snapshot, an AS2Org dataset, and
// ground-truth JSON), so the Prefix2Org pipeline runs the same code paths
// it would on real data.
//
// All randomness flows from Config.Seed; identical configs produce
// byte-identical worlds.
package synth

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// Config controls world generation.
type Config struct {
	// Seed drives all randomness; same seed, same world.
	Seed int64
	// NumOrgs is the total number of organizations (all kinds).
	NumOrgs int
	// Collectors is the number of BGP collectors (each with one peer).
	Collectors int
}

// DefaultConfig is the scale used by the experiment harness: large enough
// for stable shapes, small enough to run in seconds.
func DefaultConfig() Config {
	return Config{Seed: 20240901, NumOrgs: 1400, Collectors: 3}
}

// SmallConfig is a fast configuration for tests.
func SmallConfig() Config {
	return Config{Seed: 7, NumOrgs: 220, Collectors: 2}
}

// World is a fully generated synthetic Internet plus ground truth.
type World struct {
	Cfg  Config
	Orgs []*Org

	WHOIS               map[alloc.Registry]*whois.Database
	JPNICTypes          map[netip.Prefix]string
	ARINLegacyNonSigned []netip.Prefix
	RIB                 []bgp.Entry
	RPKI                *rpki.Repository
	AS2Org              *as2org.Dataset
	Delegated           map[alloc.Registry]*delegated.File
	Truth               *Truth

	// gen retains the generator state so the world can Evolve into a
	// later snapshot.
	gen *generator
}

// account is one resource-holding account: (org, legal-name variant,
// registry). RPKI certificates are issued per account.
type account struct {
	org     *Org
	nameIdx int
	reg     alloc.Registry
	// arinOptIn records the one-time decision to opt in to ARIN's RPKI
	// service (ARIN only issues certificates to opted-in holders).
	arinOptIn bool
	v4, v6    []netip.Prefix
	// legacyNonMember v4 blocks cannot appear in the account certificate
	// (ARIN non-signers; RIPE non-sponsored legacy goes to the shared
	// certificate instead).
	legacyNonMember []netip.Prefix
	certSKIs        []string
}

func (a *account) name() string { return a.org.LegalNames[a.nameIdx] }

// subDelegation is one sub-delegated block (customer record in WHOIS).
type subDelegation struct {
	prefix   netip.Prefix
	reg      alloc.Registry
	owner    *account // the Direct Owner account the block was carved from
	customer *Org
	// chain: when true, both an intermediate and a leaf record exist
	// (e.g. ARIN Re-Allocation + Reassignment, the Figure 1 case).
	chain        bool
	intermediate *Org // the middleman when chain is set
	v6           bool
}

// announcement is one routed prefix with its origin and ground-truth
// Direct Owner.
type announcement struct {
	prefix netip.Prefix
	origin uint32
	do     *Org // ground-truth Direct Owner
}

// generator carries all intermediate state.
type generator struct {
	cfg  Config
	rng  *rand.Rand
	w    *World
	pool map[alloc.Registry]*zonePools

	accounts []*account
	subs     []subDelegation
	anns     []announcement
	annSet   map[netip.Prefix]bool

	nextASN   uint32
	transitAS []uint32

	isps      []*Org // orgs that can serve as providers
	customers []*Org // KindCustomer orgs awaiting sub-delegations
	baseTime  time.Time

	blockMeta           map[netip.Prefix]*blockMeta
	ripeLegacySharedSKI string
	// certGroupMerged persists the one-time decision whether an org
	// consolidates a registry's accounts under one certificate, so
	// re-emission (Evolve) keeps the tree stable.
	certGroupMerged map[string]bool
}

type zonePools struct {
	v4 []*allocator
	v6 *allocator
}

// v4PoolBlocks assigns /8s to registries (disjoint; loosely realistic).
var v4PoolBlocks = map[alloc.Registry][]string{
	alloc.ARIN:    {"23.0.0.0/8", "24.0.0.0/8", "63.0.0.0/8", "65.0.0.0/8", "66.0.0.0/8", "206.0.0.0/8", "208.0.0.0/8", "2.0.0.0/8", "3.0.0.0/8", "4.0.0.0/8", "5.0.0.0/8", "6.0.0.0/8", "7.0.0.0/8", "8.0.0.0/8", "9.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8", "15.0.0.0/8", "16.0.0.0/8", "17.0.0.0/8", "18.0.0.0/8", "19.0.0.0/8", "20.0.0.0/8", "21.0.0.0/8", "22.0.0.0/8", "25.0.0.0/8", "26.0.0.0/8", "28.0.0.0/8", "29.0.0.0/8", "30.0.0.0/8", "32.0.0.0/8", "33.0.0.0/8", "34.0.0.0/8", "35.0.0.0/8"},
	alloc.RIPE:    {"31.0.0.0/8", "37.0.0.0/8", "46.0.0.0/8", "77.0.0.0/8", "80.0.0.0/8", "81.0.0.0/8", "82.0.0.0/8", "83.0.0.0/8", "38.0.0.0/8", "39.0.0.0/8", "40.0.0.0/8", "42.0.0.0/8", "44.0.0.0/8", "45.0.0.0/8", "47.0.0.0/8", "48.0.0.0/8", "49.0.0.0/8", "50.0.0.0/8", "51.0.0.0/8", "52.0.0.0/8", "53.0.0.0/8", "54.0.0.0/8", "55.0.0.0/8", "56.0.0.0/8", "57.0.0.0/8", "60.0.0.0/8", "61.0.0.0/8", "62.0.0.0/8", "64.0.0.0/8", "67.0.0.0/8", "68.0.0.0/8", "69.0.0.0/8", "70.0.0.0/8", "71.0.0.0/8", "72.0.0.0/8", "73.0.0.0/8", "74.0.0.0/8", "75.0.0.0/8"},
	alloc.APNIC:   {"1.0.0.0/8", "14.0.0.0/8", "27.0.0.0/8", "36.0.0.0/8", "43.0.0.0/8", "76.0.0.0/8", "78.0.0.0/8", "79.0.0.0/8", "84.0.0.0/8", "85.0.0.0/8", "86.0.0.0/8", "87.0.0.0/8", "88.0.0.0/8", "89.0.0.0/8", "90.0.0.0/8", "91.0.0.0/8", "92.0.0.0/8", "93.0.0.0/8", "94.0.0.0/8", "95.0.0.0/8", "96.0.0.0/8", "97.0.0.0/8", "98.0.0.0/8", "99.0.0.0/8", "100.0.0.0/8", "101.0.0.0/8", "104.0.0.0/8", "106.0.0.0/8", "107.0.0.0/8", "108.0.0.0/8", "109.0.0.0/8"},
	alloc.JPNIC:   {"133.0.0.0/8", "210.0.0.0/8", "138.0.0.0/8", "139.0.0.0/8", "141.0.0.0/8", "142.0.0.0/8"},
	alloc.KRNIC:   {"211.0.0.0/8", "143.0.0.0/8", "144.0.0.0/8", "145.0.0.0/8"},
	alloc.TWNIC:   {"140.0.0.0/8", "146.0.0.0/8", "147.0.0.0/8"},
	alloc.CNNIC:   {"58.0.0.0/8", "59.0.0.0/8", "148.0.0.0/8", "149.0.0.0/8", "150.0.0.0/8", "151.0.0.0/8"},
	alloc.IDNIC:   {"103.0.0.0/8", "152.0.0.0/8", "153.0.0.0/8"},
	alloc.IRINN:   {"117.0.0.0/8", "154.0.0.0/8", "155.0.0.0/8"},
	alloc.VNNIC:   {"113.0.0.0/8", "156.0.0.0/8", "157.0.0.0/8"},
	alloc.LACNIC:  {"177.0.0.0/8", "179.0.0.0/8", "181.0.0.0/8", "186.0.0.0/8", "110.0.0.0/8", "111.0.0.0/8", "112.0.0.0/8", "114.0.0.0/8", "115.0.0.0/8", "116.0.0.0/8", "118.0.0.0/8", "119.0.0.0/8", "120.0.0.0/8", "121.0.0.0/8", "122.0.0.0/8", "123.0.0.0/8", "124.0.0.0/8", "125.0.0.0/8"},
	alloc.NICBR:   {"189.0.0.0/8", "200.0.0.0/8", "158.0.0.0/8", "159.0.0.0/8", "160.0.0.0/8", "161.0.0.0/8"},
	alloc.NICMX:   {"187.0.0.0/8", "162.0.0.0/8", "163.0.0.0/8"},
	alloc.AFRINIC: {"41.0.0.0/8", "102.0.0.0/8", "105.0.0.0/8", "196.0.0.0/8", "197.0.0.0/8", "126.0.0.0/8", "128.0.0.0/8", "129.0.0.0/8", "130.0.0.0/8", "131.0.0.0/8", "132.0.0.0/8", "134.0.0.0/8", "135.0.0.0/8", "136.0.0.0/8", "137.0.0.0/8"},
}

var v6PoolBlocks = map[alloc.Registry]string{
	alloc.ARIN:    "2600::/16",
	alloc.RIPE:    "2a00::/16",
	alloc.APNIC:   "2400::/16",
	alloc.JPNIC:   "2401::/16",
	alloc.KRNIC:   "2402::/16",
	alloc.TWNIC:   "2403::/16",
	alloc.CNNIC:   "2408::/16",
	alloc.IDNIC:   "2404::/16",
	alloc.IRINN:   "2405::/16",
	alloc.VNNIC:   "2406::/16",
	alloc.LACNIC:  "2800::/16",
	alloc.NICBR:   "2801::/16",
	alloc.NICMX:   "2806::/16",
	alloc.AFRINIC: "2c00::/16",
}

// Generate builds the world.
func Generate(cfg Config) (*World, error) {
	if cfg.NumOrgs < 50 {
		return nil, fmt.Errorf("synth: NumOrgs %d too small (min 50)", cfg.NumOrgs)
	}
	if cfg.Collectors < 1 {
		cfg.Collectors = 2
	}
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		w: &World{
			Cfg:        cfg,
			WHOIS:      map[alloc.Registry]*whois.Database{},
			JPNICTypes: map[netip.Prefix]string{},
			RPKI:       rpki.NewRepository(),
			AS2Org:     as2org.NewDataset(),
		},
		pool:     map[alloc.Registry]*zonePools{},
		annSet:   map[netip.Prefix]bool{},
		nextASN:  3000,
		baseTime: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
	}
	for reg, blocks := range v4PoolBlocks {
		zp := &zonePools{}
		for _, b := range blocks {
			zp.v4 = append(zp.v4, newAllocator(netx.MustParse(b)))
		}
		zp.v6 = newAllocator(netx.MustParse(v6PoolBlocks[reg]))
		g.pool[reg] = zp
	}
	for i := 0; i < 20; i++ { // transit/peer ASN pool
		g.transitAS = append(g.transitAS, uint32(100+i))
	}
	g.makeOrgs()
	if err := g.delegate(); err != nil {
		return nil, err
	}
	g.subDelegate()
	g.announce()
	g.emitWHOIS()
	if err := g.buildRPKI(); err != nil {
		return nil, err
	}
	g.buildAS2Org()
	g.buildRIB()
	g.buildDelegated()
	g.buildTruth()
	if err := g.w.RPKI.Build(); err != nil {
		return nil, fmt.Errorf("synth: rpki tree invalid: %w", err)
	}
	g.w.gen = g
	return g.w, nil
}

// --- org population -------------------------------------------------------

func (g *generator) makeOrgs() {
	n := g.cfg.NumOrgs
	counts := map[OrgKind]int{
		KindLarge:       max(4, n*2/100),
		KindISP:         max(8, n*13/100),
		KindNoASNHolder: max(2, n*3/200),
		KindLeasing:     2,
	}
	counts[KindCustomer] = n * 33 / 100
	counts[KindSmall] = n - counts[KindLarge] - counts[KindISP] -
		counts[KindNoASNHolder] - counts[KindLeasing] - counts[KindCustomer]

	usedStems := map[string]int{}
	newStem := func() string {
		for attempt := 0; ; attempt++ {
			s := stemOf(g.rng)
			if attempt >= 20 {
				// The two-syllable stem space (~1.3k) saturates in large
				// worlds; extend with a third syllable rather than spin.
				s = stemOf(g.rng) + stemB[g.rng.Intn(len(stemB))]
			}
			// 3% of the time deliberately reuse a stem (the Fastly
			// Inc. / Fastly Network Solution collision).
			if cnt := usedStems[s]; cnt == 0 || (cnt == 1 && g.rng.Intn(100) < 3) {
				usedStems[s]++
				return s
			}
		}
	}
	id := 0
	add := func(kind OrgKind) *Org {
		id++
		stem := newStem()
		o := &Org{ID: id, Kind: kind, Canonical: stem}
		// Registries and legal-name variants.
		switch kind {
		case KindLarge:
			nAcc := 2 + g.rng.Intn(3)
			for i := 0; i < nAcc; i++ {
				reg := pickRegistry(g.rng)
				o.Registries = append(o.Registries, reg)
				o.LegalNames = append(o.LegalNames, legalName(g.rng, stem, reg, i > 0))
			}
			for i := 0; i < 2+g.rng.Intn(4); i++ {
				o.ASNs = append(o.ASNs, g.asn())
			}
			o.RPKIAdopter = g.rng.Intn(100) < 70
		case KindISP:
			reg := pickRegistry(g.rng)
			o.Registries = []alloc.Registry{reg}
			o.LegalNames = []string{legalName(g.rng, stem, reg, false)}
			if g.rng.Intn(100) < 35 { // second legal entity, same registry zone
				o.Registries = append(o.Registries, reg)
				o.LegalNames = append(o.LegalNames, legalName(g.rng, stem, reg, true))
			}
			for i := 0; i < 1+g.rng.Intn(2); i++ {
				o.ASNs = append(o.ASNs, g.asn())
			}
			o.RPKIAdopter = g.rng.Intn(100) < 55
		case KindSmall:
			reg := pickRegistry(g.rng)
			o.Registries = []alloc.Registry{reg}
			o.LegalNames = []string{legalName(g.rng, stem, reg, g.rng.Intn(100) < 20)}
			if g.rng.Intn(100) < 72 {
				o.ASNs = []uint32{g.asn()}
			}
			o.RPKIAdopter = g.rng.Intn(100) < 40
		case KindCustomer:
			reg := pickRegistry(g.rng)
			o.Registries = []alloc.Registry{reg}
			o.LegalNames = []string{legalName(g.rng, stem, reg, false)}
			if g.rng.Intn(100) < 25 {
				o.ASNs = []uint32{g.asn()}
			}
		case KindLeasing:
			reg := alloc.ARIN
			if g.rng.Intn(2) == 0 {
				reg = alloc.RIPE
			}
			o.Registries = []alloc.Registry{reg}
			o.LegalNames = []string{legalName(g.rng, stem, reg, false)}
		case KindNoASNHolder:
			reg := alloc.ARIN
			o.Registries = []alloc.Registry{reg}
			o.LegalNames = []string{legalName(g.rng, stem, reg, false)}
			o.RPKIAdopter = g.rng.Intn(100) < 30
		}
		o.Country = orgCountry(g.rng, o.Registries[0])
		g.w.Orgs = append(g.w.Orgs, o)
		return o
	}
	for _, kind := range []OrgKind{KindLarge, KindISP, KindSmall, KindNoASNHolder, KindLeasing, KindCustomer} {
		for i := 0; i < counts[kind]; i++ {
			o := add(kind)
			switch kind {
			case KindISP, KindLarge:
				g.isps = append(g.isps, o)
			case KindCustomer:
				g.customers = append(g.customers, o)
			}
		}
	}
	// Providers for orgs that need one.
	for _, o := range g.w.Orgs {
		if o.Kind == KindCustomer || o.Kind == KindNoASNHolder || !o.HasASN() {
			o.Provider = g.isps[g.rng.Intn(len(g.isps))]
		}
	}
}

func (g *generator) asn() uint32 {
	a := g.nextASN
	g.nextASN++
	return a
}

// --- direct delegations ---------------------------------------------------

// directV4Count / sizes per kind.
func (g *generator) directPlan(kind OrgKind) (nV4, nV6 int, v4bits func() int, v6bits func() int) {
	switch kind {
	case KindLarge:
		return 6 + g.rng.Intn(20), 2 + g.rng.Intn(5),
			func() int { return 13 + g.rng.Intn(8) }, func() int { return 32 }
	case KindISP:
		return 2 + g.rng.Intn(6), 1 + g.rng.Intn(2),
			func() int { return 15 + g.rng.Intn(6) }, func() int { return 32 }
	case KindSmall:
		nv6 := 0
		if g.rng.Intn(100) < 35 {
			nv6 = 1
		}
		return 1 + g.rng.Intn(2), nv6,
			func() int { return 21 + g.rng.Intn(4) }, func() int { return 48 }
	case KindLeasing:
		return 30 + g.rng.Intn(60), 0,
			func() int { return 21 + g.rng.Intn(4) }, func() int { return 48 }
	case KindNoASNHolder:
		return 8 + g.rng.Intn(20), g.rng.Intn(2),
			func() int { return 17 + g.rng.Intn(4) }, func() int { return 40 }
	default: // KindCustomer: no direct delegations
		return 0, 0, nil, nil
	}
}

func (g *generator) delegate() error {
	g.blockMeta = map[netip.Prefix]*blockMeta{}
	for _, o := range g.w.Orgs {
		o.DirectV4 = make([][]netip.Prefix, len(o.LegalNames))
		o.DirectV6 = make([][]netip.Prefix, len(o.LegalNames))
		nV4, nV6, v4bits, v6bits := g.directPlan(o.Kind)
		if nV4 == 0 {
			continue
		}
		for i := range o.LegalNames {
			acc := &account{org: o, nameIdx: i, reg: o.Registries[i]}
			acc.arinOptIn = o.RPKIAdopter || g.rng.Intn(100) < 40
			share4 := nV4 / len(o.LegalNames)
			share6 := nV6 / len(o.LegalNames)
			if i == 0 {
				share4 += nV4 % len(o.LegalNames)
				share6 += nV6 % len(o.LegalNames)
			}
			zp := g.pool[acc.reg]
			for k := 0; k < share4; k++ {
				a := zp.v4[g.rng.Intn(len(zp.v4))]
				p, err := a.alloc(v4bits())
				if err != nil {
					// Try the other pools of the zone before giving up.
					ok := false
					for _, alt := range zp.v4 {
						if p, err = alt.alloc(v4bits()); err == nil {
							ok = true
							break
						}
					}
					if !ok {
						return fmt.Errorf("synth: %s v4 pools exhausted for org %d", acc.reg, o.ID)
					}
				}
				acc.v4 = append(acc.v4, p)
				o.DirectV4[i] = append(o.DirectV4[i], p)
				g.recordBlockMeta(acc, p, false)
			}
			for k := 0; k < share6; k++ {
				p, err := zp.v6.alloc(v6bits())
				if err != nil {
					return fmt.Errorf("synth: %s v6 pool exhausted for org %d", acc.reg, o.ID)
				}
				acc.v6 = append(acc.v6, p)
				o.DirectV6[i] = append(o.DirectV6[i], p)
				g.recordBlockMeta(acc, p, true)
			}
			g.accounts = append(g.accounts, acc)
		}
	}
	return nil
}

// recordBlockMeta decides and stores the allocation type and legacy
// standing of a freshly delegated block. The decision happens at
// delegation time because later stages (announcement ownership, WHOIS
// emission, RPKI placement) all depend on it.
func (g *generator) recordBlockMeta(acc *account, p netip.Prefix, v6 bool) {
	status, legacy, nonMember := g.directStatus(acc, v6)
	g.blockMeta[p] = &blockMeta{acc: acc, status: status, legacy: legacy, nonMember: nonMember}
	if legacy && nonMember {
		acc.legacyNonMember = append(acc.legacyNonMember, p)
		if alloc.Parent(acc.reg) == alloc.ARIN {
			g.w.ARINLegacyNonSigned = append(g.w.ARINLegacyNonSigned, p)
		}
	}
}

// directStatus picks the Direct Owner allocation-type keyword for a
// registry/kind/family, and whether the delegation is legacy.
func (g *generator) directStatus(acc *account, v6 bool) (status string, legacy, nonMember bool) {
	parent := alloc.Parent(acc.reg)
	kind := acc.org.Kind
	switch parent {
	case alloc.ARIN:
		// ~28% of ARIN v4 space is legacy; of that, a share never signed
		// an RSA (no RPKI for them).
		if !v6 && g.rng.Intn(100) < 28 {
			legacy = true
			nonMember = g.rng.Intn(100) < 40
		}
		return "Allocation", legacy, nonMember
	case alloc.RIPE:
		if !v6 {
			if g.rng.Intn(100) < 22 {
				// RIPE labels legacy space explicitly; 36% of it is not
				// under a member/sponsoring account.
				return "LEGACY", true, g.rng.Intn(100) < 36
			}
			if kind == KindSmall && g.rng.Intn(100) < 35 {
				return "ASSIGNED PI", false, false
			}
			return "ALLOCATED PA", false, false
		}
		return "ALLOCATED-BY-RIR", false, false
	case alloc.APNIC:
		if kind == KindSmall && g.rng.Intn(100) < 35 {
			return "ASSIGNED PORTABLE", false, false
		}
		return "ALLOCATED PORTABLE", false, false
	case alloc.LACNIC:
		if kind == KindSmall && g.rng.Intn(100) < 40 {
			return "ASSIGNED", false, false
		}
		return "ALLOCATED", false, false
	default: // AFRINIC
		if !v6 {
			if kind == KindSmall && g.rng.Intn(100) < 35 {
				return "ASSIGNED PI", false, false
			}
			return "ALLOCATED PA", false, false
		}
		return "ALLOCATED-BY-RIR", false, false
	}
}

// --- sub-delegations ------------------------------------------------------

// subTypes returns the (intermediate, leaf) DC keywords for a registry.
func subTypes(reg alloc.Registry, v6 bool) (mid, leaf string) {
	switch alloc.Parent(reg) {
	case alloc.ARIN:
		return "Reallocation", "Reassignment"
	case alloc.RIPE:
		if v6 {
			return "ALLOCATED-BY-LIR", "ASSIGNED"
		}
		return "SUB-ALLOCATED PA", "ASSIGNED PA"
	case alloc.APNIC:
		return "ALLOCATED NON-PORTABLE", "ASSIGNED NON-PORTABLE"
	case alloc.LACNIC:
		return "REALLOCATED", "REASSIGNED"
	default:
		return "SUB-ALLOCATED PA", "ASSIGNED PA"
	}
}

func (g *generator) subDelegate() {
	custIdx := 0
	nextCustomer := func() *Org {
		if len(g.customers) == 0 {
			return nil
		}
		c := g.customers[custIdx%len(g.customers)]
		custIdx++
		return c
	}
	for _, acc := range g.accounts {
		o := acc.org
		subEligible := o.Kind == KindISP || o.Kind == KindLarge || o.Kind == KindLeasing
		if !subEligible {
			continue
		}
		for _, parent := range acc.v4 {
			if parent.Bits() > 23 {
				// Leasing blocks at /24 granularity: delegate whole block.
				if o.Kind == KindLeasing && g.rng.Intn(100) < 70 {
					if c := nextCustomer(); c != nil {
						g.addSub(parent, acc, c, false, false)
					}
				}
				continue
			}
			if o.Kind != KindLeasing && g.rng.Intn(100) >= 55 {
				continue // this block has no customer records
			}
			span := 24 - parent.Bits()
			maxKids := 1 << span
			nKids := 1 + g.rng.Intn(min(6, maxKids))
			for k := 0; k < nKids; k++ {
				child, err := netx.NthSubprefix(parent, 24, g.rng.Intn(maxKids))
				if err != nil {
					continue
				}
				c := nextCustomer()
				if c == nil {
					break
				}
				chain := alloc.Parent(acc.reg) == alloc.ARIN && g.rng.Intn(100) < 15
				g.addSub(child, acc, c, chain, false)
			}
		}
		// IPv6 sub-delegations (lighter: the paper finds far fewer).
		for _, parent := range acc.v6 {
			if o.Kind == KindLeasing || parent.Bits() > 44 || g.rng.Intn(100) >= 25 {
				continue
			}
			nKids := 1 + g.rng.Intn(3)
			for k := 0; k < nKids; k++ {
				child, err := netx.NthSubprefix(parent, 48, g.rng.Intn(1<<min(16, 48-parent.Bits())))
				if err != nil {
					continue
				}
				if c := nextCustomer(); c != nil {
					g.addSub(child, acc, c, false, true)
				}
			}
		}
	}
}

func (g *generator) addSub(p netip.Prefix, owner *account, customer *Org, chain, v6 bool) {
	sd := subDelegation{prefix: p, reg: owner.reg, owner: owner, customer: customer, chain: chain, v6: v6}
	if chain {
		// Route the block through an intermediate reseller org.
		sd.intermediate = g.customers[g.rng.Intn(len(g.customers))]
		if sd.intermediate == customer {
			sd.chain = false
			sd.intermediate = nil
		}
	}
	if v6 {
		customer.SubV6 = append(customer.SubV6, p)
	} else {
		customer.SubV4 = append(customer.SubV4, p)
	}
	if customer.Provider == nil {
		customer.Provider = owner.org
	}
	g.subs = append(g.subs, sd)
}

// --- announcements --------------------------------------------------------

func (g *generator) announce() {
	subByPrefix := map[netip.Prefix]*subDelegation{}
	for i := range g.subs {
		subByPrefix[g.subs[i].prefix] = &g.subs[i]
	}
	announced := func(p netip.Prefix, origin uint32, do *Org) {
		if g.annSet[p] {
			return
		}
		g.annSet[p] = true
		g.anns = append(g.anns, announcement{p, origin, do})
	}
	originFor := func(holder, do *Org) uint32 {
		switch {
		case holder.HasASN() && g.rng.Intn(100) < 70:
			return holder.ASNs[g.rng.Intn(len(holder.ASNs))]
		case do.HasASN():
			return do.ASNs[g.rng.Intn(len(do.ASNs))]
		case holder.Provider != nil && holder.Provider.HasASN():
			return holder.Provider.ASNs[g.rng.Intn(len(holder.Provider.ASNs))]
		case do.Provider != nil && do.Provider.HasASN():
			return do.Provider.ASNs[g.rng.Intn(len(do.Provider.ASNs))]
		default:
			isp := g.isps[g.rng.Intn(len(g.isps))]
			return isp.ASNs[g.rng.Intn(len(isp.ASNs))]
		}
	}
	// Sub-delegated blocks: the (leaf) customer is the holder. Under a
	// RIPE legacy parent the sub-delegation retains the Legacy label — a
	// Direct Owner type — so the customer is the Direct Owner of record.
	for i := range g.subs {
		sd := &g.subs[i]
		if g.rng.Intn(100) < 8 {
			continue // a few registered blocks are not routed
		}
		do := sd.owner.org
		if g.subRetainsLegacy(sd) {
			do = sd.customer
		}
		announced(sd.prefix, originFor(sd.customer, sd.owner.org), do)
	}
	// Direct blocks: announce the block itself and sometimes a few
	// more-specifics.
	for _, acc := range g.accounts {
		for _, p := range append(append([]netip.Prefix{}, acc.v4...), acc.v6...) {
			if g.rng.Intn(100) < 6 {
				continue // not routed
			}
			announced(p, originFor(acc.org, acc.org), acc.org)
			if p.Addr().Is4() && p.Bits() <= 22 && g.rng.Intn(100) < 25 {
				n := 1 + g.rng.Intn(3)
				for k := 0; k < n; k++ {
					ms, err := netx.NthSubprefix(p, 24, g.rng.Intn(1<<(24-p.Bits())))
					if err != nil {
						continue
					}
					if sd, isSub := subByPrefix[ms]; isSub {
						do := acc.org
						if g.subRetainsLegacy(sd) {
							do = sd.customer
						}
						announced(ms, originFor(sd.customer, acc.org), do)
					} else {
						announced(ms, originFor(acc.org, acc.org), acc.org)
					}
				}
			}
			if !p.Addr().Is4() && p.Bits() <= 40 && g.rng.Intn(100) < 15 {
				ms, err := netx.NthSubprefix(p, 48, g.rng.Intn(1<<min(16, 48-p.Bits())))
				if err == nil {
					announced(ms, originFor(acc.org, acc.org), acc.org)
				}
			}
		}
	}
}

// subRetainsLegacy reports whether a sub-delegation keeps the RIPE Legacy
// designation (making the customer the Direct Owner of record).
func (g *generator) subRetainsLegacy(sd *subDelegation) bool {
	if alloc.Parent(sd.reg) != alloc.RIPE || sd.v6 {
		return false
	}
	pm := g.blockMeta[coveringDirect(sd)]
	return pm != nil && pm.legacy
}
