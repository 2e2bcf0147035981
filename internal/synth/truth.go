package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// Validation groups mirror the paper's §7 ground-truth sources.
const (
	// GroupValidation marks the large public-IP-range-list organizations
	// (Amazon/Google/Cloudflare analogues).
	GroupValidation = "validation"
	// GroupInternet2 marks the small-institution batch from the RPKI
	// Ready Report (§7.2).
	GroupInternet2 = "internet2"
	// GroupEmail marks the single-prefix email respondents (§7.2).
	GroupEmail = "email"
)

// OrgTruth is the ground truth for one organization.
type OrgTruth struct {
	Canonical string   `json:"canonical"`
	Kind      string   `json:"kind"`
	Names     []string `json:"names"`
	ASNs      []uint32 `json:"asns"`
	// OwnedV4/OwnedV6 are the routed prefixes whose Direct Owner is this
	// organization (the complete truth).
	OwnedV4 []netip.Prefix `json:"-"`
	OwnedV6 []netip.Prefix `json:"-"`
	// PublicV4/PublicV6 are the organization's published IP range lists:
	// non-exhaustive subsets of the truth, possibly polluted with partner
	// or differently-named-subsidiary space (the paper's FN sources).
	PublicV4 []netip.Prefix `json:"-"`
	PublicV6 []netip.Prefix `json:"-"`
	// Complete marks organizations that shared exhaustive lists
	// (Cloudflare / IIJ analogues): PublicV4/V6 == OwnedV4/V6.
	Complete bool `json:"complete"`
	// Group assigns the org to a validation cohort ("" = not used for
	// validation).
	Group string `json:"group"`
	// RPKIAdopter and Provider support the §8 case studies.
	RPKIAdopter bool   `json:"rpkiAdopter"`
	Provider    string `json:"provider,omitempty"`
	HasASN      bool   `json:"hasASN"`
}

// Truth is the complete ground truth of a generated world.
type Truth struct {
	Orgs []*OrgTruth
}

// ByCanonical returns the truth entry for a canonical org name.
func (t *Truth) ByCanonical(name string) (*OrgTruth, bool) {
	for _, o := range t.Orgs {
		if o.Canonical == name {
			return o, true
		}
	}
	return nil, false
}

// Validation returns the truth entries in the given group.
func (t *Truth) Validation(group string) []*OrgTruth {
	var out []*OrgTruth
	for _, o := range t.Orgs {
		if o.Group == group {
			out = append(out, o)
		}
	}
	return out
}

func (g *generator) buildTruth() {
	t := &Truth{}
	byOrg := map[*Org]*OrgTruth{}
	for _, o := range g.w.Orgs {
		ot := &OrgTruth{
			Canonical:   o.Canonical,
			Kind:        o.Kind.String(),
			Names:       append([]string{}, o.LegalNames...),
			ASNs:        append([]uint32{}, o.ASNs...),
			RPKIAdopter: o.RPKIAdopter,
			HasASN:      o.HasASN(),
		}
		if o.Provider != nil {
			ot.Provider = o.Provider.Canonical
		}
		byOrg[o] = ot
		t.Orgs = append(t.Orgs, ot)
	}
	for _, ann := range g.anns {
		ot := byOrg[ann.do]
		if ann.prefix.Addr().Is4() {
			ot.OwnedV4 = append(ot.OwnedV4, ann.prefix)
		} else {
			ot.OwnedV6 = append(ot.OwnedV6, ann.prefix)
		}
	}
	for _, ot := range t.Orgs {
		ot.OwnedV4 = netx.Dedup(ot.OwnedV4)
		ot.OwnedV6 = netx.Dedup(ot.OwnedV6)
	}

	// Validation cohort: the largest "large" orgs by routed v4 prefixes.
	var larges []*OrgTruth
	for _, o := range g.w.Orgs {
		if o.Kind == KindLarge {
			larges = append(larges, byOrg[o])
		}
	}
	sort.Slice(larges, func(i, j int) bool {
		if len(larges[i].OwnedV4) != len(larges[j].OwnedV4) {
			return len(larges[i].OwnedV4) > len(larges[j].OwnedV4)
		}
		return larges[i].Canonical < larges[j].Canonical
	})
	nVal := min(10, len(larges))
	sample := func(ps []netip.Prefix, pct int) []netip.Prefix {
		var out []netip.Prefix
		for _, p := range ps {
			if g.rng.Intn(100) < pct {
				out = append(out, p)
			}
		}
		return out
	}
	for i := 0; i < nVal; i++ {
		ot := larges[i]
		ot.Group = GroupValidation
		switch {
		case i == 2 || i == 3:
			// Complete exhaustive lists (Cloudflare / IIJ analogues).
			ot.Complete = true
			ot.PublicV4 = append([]netip.Prefix{}, ot.OwnedV4...)
			ot.PublicV6 = append([]netip.Prefix{}, ot.OwnedV6...)
		default:
			ot.PublicV4 = sample(ot.OwnedV4, 80)
			ot.PublicV6 = sample(ot.OwnedV6, 85)
		}
	}
	// False-negative injection 1 — the partner case (Amazon-in-China):
	// validation org 0 publishes ranges actually held by a partner.
	if nVal > 0 && len(g.isps) > 0 {
		partner := byOrg[g.isps[g.rng.Intn(len(g.isps))]]
		if partner != larges[0] {
			k := min(8, len(partner.OwnedV4))
			larges[0].PublicV4 = append(larges[0].PublicV4, partner.OwnedV4[:k]...)
			// Scale the IPv6 pollution to the cohort size so small test
			// worlds keep a ~99% recall shape rather than collapsing.
			k6 := max(1, len(larges[0].OwnedV6)/20)
			if k6 > 3 {
				k6 = 3
			}
			if k6 > len(partner.OwnedV6) {
				k6 = len(partner.OwnedV6)
			}
			larges[0].PublicV6 = append(larges[0].PublicV6, partner.OwnedV6[:k6]...)
		}
	}
	// False-negative injection 2 — the differently-named subsidiary
	// (Meta's Edge Network Services): a small org's space appears on
	// validation org 1's list; string processing cannot link them.
	if nVal > 1 {
		for _, o := range g.w.Orgs {
			if o.Kind == KindSmall && len(byOrg[o].OwnedV4) > 0 {
				larges[1].PublicV4 = append(larges[1].PublicV4, byOrg[o].OwnedV4[0])
				break
			}
		}
	}
	// The leasing entity and the no-ASN holders also publish lists.
	for _, o := range g.w.Orgs {
		if o.Kind == KindLeasing || o.Kind == KindNoASNHolder {
			ot := byOrg[o]
			ot.Group = GroupValidation
			ot.PublicV4 = sample(ot.OwnedV4, 85)
			ot.PublicV6 = sample(ot.OwnedV6, 85)
		}
	}
	// Internet2-style cohort: small institutions, mostly 1-2 prefixes.
	i2 := 0
	for _, o := range g.w.Orgs {
		ot := byOrg[o]
		if o.Kind == KindSmall && ot.Group == "" && len(ot.OwnedV4) >= 1 && i2 < 80 {
			ot.Group = GroupInternet2
			ot.PublicV4 = append([]netip.Prefix{}, ot.OwnedV4...)
			ot.PublicV6 = append([]netip.Prefix{}, ot.OwnedV6...)
			ot.Complete = true
			i2++
		}
	}
	// Email respondents: five single-prefix orgs with an ASN.
	em := 0
	for _, o := range g.w.Orgs {
		ot := byOrg[o]
		if o.Kind == KindSmall && ot.Group == "" && o.HasASN() && len(ot.OwnedV4) == 1 && em < 5 {
			ot.Group = GroupEmail
			ot.PublicV4 = append([]netip.Prefix{}, ot.OwnedV4...)
			ot.Complete = true
			em++
		}
	}
	g.w.Truth = t
}

// --- serialization ---------------------------------------------------------

type orgTruthJSON struct {
	OrgTruth
	OwnedV4  []string `json:"ownedV4"`
	OwnedV6  []string `json:"ownedV6"`
	PublicV4 []string `json:"publicV4"`
	PublicV6 []string `json:"publicV6"`
}

func prefixesToStrings(ps []netip.Prefix) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func stringsToPrefixes(ss []string) ([]netip.Prefix, error) {
	out := make([]netip.Prefix, len(ss))
	for i, s := range ss {
		p, err := netip.ParsePrefix(s)
		if err != nil {
			return nil, err
		}
		out[i] = p.Masked()
	}
	return out, nil
}

// TruthFile is the ground truth's location inside a data directory.
const TruthFile = "truth/groundtruth.json"

// WriteTruth writes the ground truth under dir.
func WriteTruth(dir string, t *Truth) error {
	var rows []orgTruthJSON
	for _, o := range t.Orgs {
		rows = append(rows, orgTruthJSON{
			OrgTruth: *o,
			OwnedV4:  prefixesToStrings(o.OwnedV4),
			OwnedV6:  prefixesToStrings(o.OwnedV6),
			PublicV4: prefixesToStrings(o.PublicV4),
			PublicV6: prefixesToStrings(o.PublicV6),
		})
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return fmt.Errorf("synth: marshal truth: %w", err)
	}
	err = fsx.WriteFile(filepath.Join(dir, TruthFile), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	return nil
}

// LoadTruth reads the ground truth under dir. The context is honored
// before the read starts.
func LoadTruth(ctx context.Context, dir string) (*Truth, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, TruthFile))
	if err != nil {
		return nil, fmt.Errorf("synth: read truth: %w", err)
	}
	var rows []orgTruthJSON
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("synth: parse truth: %w", err)
	}
	t := &Truth{}
	for i := range rows {
		o := rows[i].OrgTruth
		if o.OwnedV4, err = stringsToPrefixes(rows[i].OwnedV4); err != nil {
			return nil, fmt.Errorf("synth: truth org %s: %w", o.Canonical, err)
		}
		if o.OwnedV6, err = stringsToPrefixes(rows[i].OwnedV6); err != nil {
			return nil, fmt.Errorf("synth: truth org %s: %w", o.Canonical, err)
		}
		if o.PublicV4, err = stringsToPrefixes(rows[i].PublicV4); err != nil {
			return nil, fmt.Errorf("synth: truth org %s: %w", o.Canonical, err)
		}
		if o.PublicV6, err = stringsToPrefixes(rows[i].PublicV6); err != nil {
			return nil, fmt.Errorf("synth: truth org %s: %w", o.Canonical, err)
		}
		t.Orgs = append(t.Orgs, &o)
	}
	return t, nil
}

// WriteDir materializes the whole world into a data directory in the
// on-disk formats the pipeline consumes.
func (w *World) WriteDir(dir string) error {
	if err := whois.WriteDir(dir, w.WHOIS, w.JPNICTypes); err != nil {
		return err
	}
	if len(w.ARINLegacyNonSigned) > 0 {
		err := fsx.WriteFile(filepath.Join(dir, "whois", whois.ARINLegacyFile), func(out io.Writer) error {
			return whois.WritePrefixList(out, "ARIN legacy blocks without a registry services agreement", w.ARINLegacyNonSigned)
		})
		if err != nil {
			return fmt.Errorf("synth: %w", err)
		}
	}
	if err := bgp.WriteDir(dir, w.RIB); err != nil { // MRT RIB snapshot
		return err
	}
	if err := w.RPKI.WriteDir(dir); err != nil {
		return err
	}
	if err := w.AS2Org.WriteDir(dir); err != nil {
		return err
	}
	if len(w.Delegated) > 0 {
		if err := delegated.WriteDir(dir, w.Delegated); err != nil {
			return err
		}
	}
	return WriteTruth(dir, w.Truth)
}

// StartJPNICServer launches an RFC 3912 WHOIS server answering allocation
// type queries for the world's JPNIC blocks, returning its address and a
// shutdown func. It lets examples exercise the live-query path the paper
// used against whois.nic.ad.jp.
func (w *World) StartJPNICServer(addr string) (string, func() error, error) {
	srv := whois.NewServer()
	nameOf := map[netip.Prefix]string{}
	if db := w.WHOIS[alloc.JPNIC]; db != nil {
		for _, r := range db.Records {
			if len(r.Prefixes) > 0 {
				nameOf[r.Prefixes[0]] = r.OrgName
			}
		}
	}
	for p, status := range w.JPNICTypes {
		srv.Register(p, nameOf[p], "", status)
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Close, nil
}
