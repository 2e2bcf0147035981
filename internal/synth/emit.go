package synth

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// blockMeta remembers per-direct-block decisions made at WHOIS emission
// time so the RPKI stage places blocks consistently.
type blockMeta struct {
	acc       *account
	status    string
	legacy    bool
	nonMember bool // legacy without RIR agreement: no account certificate
}

// dbFor maps a delegating registry to the bulk database its records
// appear in. JPNIC, KRNIC, TWNIC, NIC.br and NIC.mx publish their own
// bulk data; the other NIRs' delegations appear in the parent RIR's.
func dbFor(reg alloc.Registry) alloc.Registry {
	switch reg {
	case alloc.CNNIC, alloc.IDNIC, alloc.IRINN, alloc.VNNIC:
		return alloc.APNIC
	default:
		return reg
	}
}

func (g *generator) db(reg alloc.Registry) *whois.Database {
	target := dbFor(reg)
	db := g.w.WHOIS[target]
	if db == nil {
		db = whois.NewDatabase()
		g.w.WHOIS[target] = db
	}
	return db
}

// recDate derives a stable last-updated date for the registry record
// covering p. Like blockDate it is a pure function of the block, so
// re-emitting an evolved world leaves every untouched registry's file
// byte-identical — the property the delta rebuild's manifest diff
// depends on.
func (g *generator) recDate(p netip.Prefix) time.Time {
	b := p.Addr().As16()
	days := int(b[9])*7 + int(b[12])*5 + int(b[14])*3 + p.Bits()
	return g.baseTime.AddDate(0, 0, -(days%600 + 1))
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToUpper(s) {
		if (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	out := b.String()
	if len(out) > 12 {
		out = out[:12]
	}
	return out
}

func (g *generator) emitWHOIS() {
	for _, acc := range g.accounts {
		db := g.db(acc.reg)
		target := dbFor(acc.reg)
		name := acc.name()
		orgID := ""
		if target == alloc.RIPE {
			orgID = fmt.Sprintf("ORG-%s%d-RIPE", slug(name), acc.org.ID)
			db.Orgs[orgID] = whois.Org{ID: orgID, Name: name, Country: acc.org.Country}
		}
		emit := func(p netip.Prefix, v6 bool, i int) {
			status := g.blockMeta[p].status
			recName := name
			// A slice of registry records carry noisy name variants
			// (RIPE records resolve names through organisation objects,
			// which are curated, so noise applies to inline-name zones).
			// The choice derives from the block itself so snapshots of
			// an evolved world keep each record's name stable.
			if orgID == "" {
				b := p.Addr().As16()
				h := int(b[12])<<8 | int(b[13]) + p.Bits()*31
				if h%100 < 7 {
					recName = noisyVariant(rand.New(rand.NewSource(int64(h))), name)
				}
			}
			rec := whois.Record{
				Prefixes: []netip.Prefix{p},
				Registry: target,
				Status:   status,
				NetName:  netName(acc.org.Canonical, acc.org.ID*100+i),
				Country:  acc.org.Country,
				Updated:  g.recDate(p),
			}
			if orgID != "" {
				rec.OrgID = orgID
			} else {
				rec.OrgName = recName
			}
			if target == alloc.JPNIC {
				// JPNIC bulk data has no allocation type; it is served
				// via individual WHOIS queries (the types cache file).
				rec.Status = ""
				rec.OrgName = recName
				rec.OrgID = ""
				g.w.JPNICTypes[p] = status
			}
			db.Records = append(db.Records, rec)
		}
		for i, p := range acc.v4 {
			emit(p, false, i)
		}
		for i, p := range acc.v6 {
			emit(p, true, len(acc.v4)+i)
		}
	}
	// Sub-delegation records.
	for i := range g.subs {
		sd := &g.subs[i]
		db := g.db(sd.reg)
		target := dbFor(sd.reg)
		mid, leaf := subTypes(sd.reg, sd.v6)
		// RIPE legacy parents: sub-delegations retain the Legacy label.
		if pm := g.blockMeta[coveringDirect(sd)]; pm != nil && pm.legacy && alloc.Parent(sd.reg) == alloc.RIPE {
			mid, leaf = "LEGACY", "LEGACY"
		}
		add := func(org *Org, status string) {
			rec := whois.Record{
				Prefixes: []netip.Prefix{sd.prefix},
				Registry: target,
				Status:   status,
				NetName:  netName(org.Canonical, org.ID*100+i),
				Country:  org.Country,
				OrgName:  org.LegalNames[0],
				Updated:  g.recDate(sd.prefix),
			}
			if target == alloc.JPNIC {
				rec.Status = ""
				g.w.JPNICTypes[sd.prefix] = status
			}
			db.Records = append(db.Records, rec)
		}
		if sd.chain && sd.intermediate != nil {
			add(sd.intermediate, mid)
			add(sd.customer, leaf)
		} else {
			add(sd.customer, leaf)
		}
	}
	netx.Sort(g.w.ARINLegacyNonSigned)
}

func coveringDirect(sd *subDelegation) netip.Prefix {
	blocks := sd.owner.v4
	if sd.v6 {
		blocks = sd.owner.v6
	}
	for _, p := range blocks {
		if netx.Contains(p, sd.prefix) {
			return p
		}
	}
	return netip.Prefix{}
}

// --- RPKI ------------------------------------------------------------------

func (g *generator) buildRPKI() error {
	repo := g.w.RPKI
	// Trust anchors: one per RIR, covering the RIR's pools plus its NIR
	// children's pools.
	taSKI := map[alloc.Registry]string{}
	for _, rir := range alloc.RIRs {
		var res []netip.Prefix
		addZone := func(reg alloc.Registry) {
			for _, b := range v4PoolBlocks[reg] {
				res = append(res, netx.MustParse(b))
			}
			res = append(res, netx.MustParse(v6PoolBlocks[reg]))
		}
		addZone(rir)
		for _, nir := range alloc.NIRs {
			if alloc.Parent(nir) == rir {
				addZone(nir)
			}
		}
		ski := "TA:" + string(rir)
		taSKI[rir] = ski
		repo.AddCert(rpki.Certificate{SKI: ski, Subject: string(rir) + "-trust-anchor", Registry: rir, Resources: res, TrustAnchor: true})
	}
	// NIR certificates under their parent TA.
	nirSKI := map[alloc.Registry]string{}
	for _, nir := range alloc.NIRs {
		var res []netip.Prefix
		for _, b := range v4PoolBlocks[nir] {
			res = append(res, netx.MustParse(b))
		}
		res = append(res, netx.MustParse(v6PoolBlocks[nir]))
		ski := rpki.SKIOf(nir, string(nir)+"-nir", res)
		nirSKI[nir] = ski
		repo.AddCert(rpki.Certificate{
			SKI: ski, AKI: taSKI[alloc.Parent(nir)],
			Subject: string(nir) + "-nir", Registry: nir, Resources: res,
		})
	}
	// hostedNIRs issue child certificates to members; the others (IRINN,
	// VNNIC) sign ROAs directly under the NIR certificate.
	hosted := map[alloc.Registry]bool{
		alloc.JPNIC: true, alloc.TWNIC: true, alloc.KRNIC: true,
		alloc.CNNIC: true, alloc.IDNIC: true, alloc.NICBR: true,
	}
	// Member account certificates. Accounts of the same organization in
	// the same registry frequently share one resource account — the RIR
	// member account holds every delegation of the region even when the
	// inetnum records carry different legal-entity names (the paper's
	// Table 3: three Verizon entities in one certificate). Group such
	// accounts (usually) before issuing certificates. blockCert records,
	// per direct block, the SKI of the certificate listing it; a block
	// listed twice keeps the later certificate (Freeze keeps the largest
	// Val, and Val is the position in certSKIs).
	var (
		blockCert []lpm.Item
		certSKIs  []string
	)
	listBlock := func(p netip.Prefix, ski string) {
		blockCert = append(blockCert, lpm.Item{Prefix: p, Val: int32(len(certSKIs))})
		certSKIs = append(certSKIs, ski)
	}
	var ripeLegacyShared []netip.Prefix
	type groupKey struct {
		orgID int
		reg   alloc.Registry
	}
	groups := map[groupKey][]*account{}
	var order []groupKey
	for _, acc := range g.accounts {
		k := groupKey{acc.org.ID, acc.reg}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], acc)
	}
	if g.certGroupMerged == nil {
		g.certGroupMerged = map[string]bool{}
	}
	for gi, k := range order {
		accs := groups[k]
		// 70% of multi-account organizations consolidate the registry's
		// delegations under one resource account; the decision is made
		// once and persists across snapshot re-emissions.
		mergeKey := fmt.Sprintf("%d|%s", k.orgID, k.reg)
		merged, decided := g.certGroupMerged[mergeKey]
		if !decided {
			merged = len(accs) > 1 && g.rng.Intn(100) < 70
			g.certGroupMerged[mergeKey] = merged
		}
		var certGroups [][]*account
		if merged && len(accs) > 1 {
			certGroups = [][]*account{accs}
		} else {
			for _, a := range accs {
				certGroups = append(certGroups, []*account{a})
			}
		}
		parent := alloc.Parent(k.reg)
		for ci, cg := range certGroups {
			var res []netip.Prefix
			for _, acc := range cg {
				for _, p := range append(append([]netip.Prefix{}, acc.v4...), acc.v6...) {
					m := g.blockMeta[p]
					if m != nil && m.nonMember {
						if parent == alloc.RIPE {
							// Unsponsored RIPE legacy space sits in one
							// shared certificate covering many orgs.
							ripeLegacyShared = append(ripeLegacyShared, p)
						}
						// ARIN non-signers appear in no certificate.
						continue
					}
					res = append(res, p)
				}
			}
			if len(res) == 0 {
				continue
			}
			if parent == alloc.ARIN && !cg[0].arinOptIn && !cg[0].org.RPKIAdopter {
				// ARIN issues certificates only to holders who opted in.
				continue
			}
			aki := taSKI[parent]
			isNIR := alloc.IsNIR(k.reg)
			if isNIR {
				if !hosted[k.reg] {
					// IRINN/VNNIC members have no certificate of their
					// own; prefixes resolve to the NIR certificate.
					for _, p := range res {
						listBlock(p, nirSKI[k.reg])
					}
					continue
				}
				aki = nirSKI[k.reg]
			}
			subject := fmt.Sprintf("%s-member-%d-%d-%d", k.reg, k.orgID, gi, ci)
			netx.Sort(res)
			ski := rpki.SKIOf(k.reg, subject, res)
			repo.AddCert(rpki.Certificate{SKI: ski, AKI: aki, Subject: subject, Registry: k.reg, Resources: res})
			for _, acc := range cg {
				acc.certSKIs = append(acc.certSKIs, ski)
			}
			for _, p := range res {
				listBlock(p, ski)
			}
		}
	}
	if len(ripeLegacyShared) > 0 {
		netx.Sort(ripeLegacyShared)
		ski := rpki.SKIOf(alloc.RIPE, "ripe-legacy-unsponsored", ripeLegacyShared)
		repo.AddCert(rpki.Certificate{
			SKI: ski, AKI: taSKI[alloc.RIPE],
			Subject: "ripe-legacy-unsponsored", Registry: alloc.RIPE,
			Resources: ripeLegacyShared,
		})
		g.ripeLegacySharedSKI = ski
		for _, p := range ripeLegacyShared {
			listBlock(p, ski)
		}
	}
	// ROAs: Direct Owners who adopted RPKI sign their announced space.
	certOf := lpm.Freeze(blockCert)
	for _, ann := range g.anns {
		if !ann.do.RPKIAdopter {
			continue
		}
		i, ok := certOf.LookupPrefix(ann.prefix)
		if !ok {
			continue // space not under any certificate (e.g. ARIN legacy)
		}
		repo.AddROA(rpki.ROA{
			Prefix:    ann.prefix,
			MaxLength: ann.prefix.Bits(),
			ASN:       ann.origin,
			CertSKI:   certSKIs[i],
		})
	}
	return nil
}

// --- NRO delegated-extended files -------------------------------------------

// buildDelegated produces one delegated-extended statistics file per RIR,
// folding NIR-zone delegations into the parent RIR's file (as the real
// NRO files do). It lists every direct delegation plus every ASN.
func (g *generator) buildDelegated() {
	files := map[alloc.Registry]*delegated.File{}
	for _, rir := range alloc.RIRs {
		files[rir] = &delegated.File{Registry: rir, Serial: g.baseTime.Format("20060102")}
	}
	for _, acc := range g.accounts {
		rir := alloc.Parent(acc.reg)
		f := files[rir]
		opaque := fmt.Sprintf("acct-%d-%d", acc.org.ID, acc.nameIdx)
		status := "allocated"
		for _, p := range acc.v4 {
			f.Records = append(f.Records, delegated.IPv4RecordFor(rir, acc.org.Country, p, g.blockDate(p), status, opaque))
		}
		for _, p := range acc.v6 {
			f.Records = append(f.Records, delegated.IPv6RecordFor(rir, acc.org.Country, p, g.blockDate(p), status, opaque))
		}
	}
	for _, o := range g.w.Orgs {
		if len(o.Registries) == 0 {
			continue
		}
		rir := alloc.Parent(o.Registries[0])
		for _, asn := range o.ASNs {
			files[rir].Records = append(files[rir].Records,
				delegated.ASNRecordFor(rir, o.Country, asn, g.baseTime, "assigned", fmt.Sprintf("acct-%d-0", o.ID)))
		}
	}
	g.w.Delegated = files
}

// blockDate derives a stable registration date for a block.
func (g *generator) blockDate(p netip.Prefix) time.Time {
	b := p.Addr().As16()
	days := int(b[10])*3 + int(b[11])*2 + p.Bits()
	return g.baseTime.AddDate(0, 0, -(days%900 + 30))
}

// --- AS2Org ----------------------------------------------------------------

func (g *generator) buildAS2Org() {
	d := g.w.AS2Org
	for _, o := range g.w.Orgs {
		for i, asn := range o.ASNs {
			nameIdx := i % len(o.LegalNames)
			name := o.LegalNames[nameIdx]
			orgID := fmt.Sprintf("ORG-%s-%d-%d", slug(name), o.ID, nameIdx)
			d.AddAS(asn, orgID, name, o.Country)
		}
		if len(o.ASNs) >= 2 {
			switch r := g.rng.Intn(100); {
			case r < 70:
				d.AddSiblings("as2org+", o.ASNs...)
			case r < 85:
				d.AddSiblings("IIL-AS2Org", o.ASNs[:2]...)
			}
			// The rest stay undiscovered: realistic inference misses.
		}
	}
	// Transit ASNs belong to synthetic tier-1 carriers.
	for i, asn := range g.transitAS {
		d.AddAS(asn, fmt.Sprintf("ORG-TRANSIT-%d", i), fmt.Sprintf("Backbone Carrier %d", i), "US")
	}
}

// --- BGP RIB ---------------------------------------------------------------

var collectorNames = []string{"route-views2", "rrc00", "route-views6", "rrc01", "route-views.sydney", "rrc13"}

func (g *generator) buildRIB() {
	n := g.cfg.Collectors
	if n > len(collectorNames) {
		n = len(collectorNames)
	}
	for ci := 0; ci < n; ci++ {
		coll := bgp.NewCollector(collectorNames[ci])
		peer := g.transitAS[ci%len(g.transitAS)]
		apply := func(viaPeer uint32, prefix netip.Prefix, origin uint32) {
			// Transit hops derive from the announcement itself (prefix,
			// origin, peer, collector), not the shared generator stream:
			// re-emitting an evolved world must rewrite the RIB only for
			// announcements that actually changed.
			b := prefix.Addr().As16()
			hv := fnv.New64a()
			hv.Write(b[:])
			var meta [13]byte
			meta[0] = byte(prefix.Bits())
			binary.BigEndian.PutUint32(meta[1:], origin)
			binary.BigEndian.PutUint32(meta[5:], viaPeer)
			binary.BigEndian.PutUint32(meta[9:], uint32(ci))
			hv.Write(meta[:])
			hrng := rand.New(rand.NewSource(int64(hv.Sum64())))
			path := []uint32{viaPeer}
			for h := hrng.Intn(3); h > 0; h-- {
				t := g.transitAS[hrng.Intn(len(g.transitAS))]
				if t != path[len(path)-1] && t != origin {
					path = append(path, t)
				}
			}
			if path[len(path)-1] != origin {
				path = append(path, origin)
			}
			if err := coll.Apply(viaPeer, &bgp.Update{ASPath: path, NLRI: []netip.Prefix{prefix}}); err != nil {
				// Announcements are generated valid; an error here is a bug.
				panic(err)
			}
		}
		moasPeer := g.transitAS[(ci+1)%len(g.transitAS)]
		for _, ann := range g.anns {
			apply(peer, ann.prefix, ann.origin)
			// ~1% MOAS noise: anycast and misconfigured second origins,
			// seen through a different peer of one collector. Keyed to
			// the prefix so the noise is stable across re-emission.
			b := ann.prefix.Addr().As16()
			if ci == 0 && (int(b[13])^int(b[15]))%100 == 3 && ann.do.HasASN() {
				second := ann.do.ASNs[0]
				if second != ann.origin {
					apply(moasPeer, ann.prefix, second)
				}
			}
		}
		g.w.RIB = append(g.w.RIB, coll.Dump()...)
	}
}
