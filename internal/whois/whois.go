// Package whois models Regional/National Internet Registry WHOIS data and
// implements bulk parsers and writers for each registry's native flavour.
//
// The five RIRs (and the NIRs whose bulk data Prefix2Org consumes) publish
// address-block registrations in mutually incompatible formats:
//
//   - RIPE, APNIC, AFRINIC, KRNIC, TWNIC: RPSL-style paragraph objects
//     (inetnum / inet6num / organisation), with the organization name
//     either inline in descr (APNIC, AFRINIC, KRNIC, TWNIC) or behind an
//     org: reference that must be resolved against organisation objects
//     (RIPE) — see ParseRPSL / WriteRPSL.
//   - ARIN: NetRange blocks with NetType and OrgName fields — see
//     ParseARIN / WriteARIN.
//   - LACNIC (and NIC.br / NIC.mx): compact inetnum records in CIDR
//     notation with owner/ownerid fields — see ParseLACNIC / WriteLACNIC.
//   - JPNIC: bulk data without the allocation type; the type must be
//     fetched through individual WHOIS (RFC 3912) queries per block — see
//     ParseJPNICBulk, Client and Server.
//
// All parsers normalize into the same Record model, expand inclusive
// address ranges into canonical CIDR prefixes, and resolve organization
// references, so the rest of the pipeline is registry-agnostic. When a
// registry publishes several records for the same (prefix, allocation
// type), the latest by last-updated wins (§4.2 of the paper).
package whois

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Record is one address-block registration from a registry database.
type Record struct {
	// Prefixes are the canonical CIDR blocks the registration covers. A
	// registration given as an inclusive range (ARIN NetRange, RIPE
	// inetnum) may expand to several CIDRs.
	Prefixes []netip.Prefix
	// Registry is the database the record came from (an RIR or NIR).
	Registry alloc.Registry
	// Status is the raw allocation-type keyword (status / NetType field).
	// It may be empty for JPNIC bulk records before enrichment.
	Status string
	// OrgName is the resolved organization name. For RIPE-style records
	// this is the org-name of the referenced organisation object.
	OrgName string
	// OrgID is the raw organization reference, when the registry uses
	// indirection (RIPE org:, ARIN OrgId, LACNIC ownerid).
	OrgID string
	// NetName is the registry's network handle (netname / NetName).
	NetName string
	// Country is the ISO-3166 country code, when present.
	Country string
	// Updated is the record's last-modified timestamp, used to select the
	// latest record when duplicates exist.
	Updated time.Time
}

// Family returns the address family of the record's blocks.
func (r *Record) Family() alloc.Family {
	if len(r.Prefixes) > 0 && !r.Prefixes[0].Addr().Is4() {
		return alloc.IPv6
	}
	return alloc.IPv4
}

// Type resolves the record's Status keyword against the allocation-type
// taxonomy.
func (r *Record) Type() (alloc.Type, error) {
	return alloc.Lookup(r.Registry, r.Status, r.Family())
}

// Org is an organisation object (RIPE organisation:, ARIN Org record).
type Org struct {
	ID      string
	Name    string
	Country string
}

// Database holds the parsed contents of one or more registry databases.
type Database struct {
	Records []Record
	// Orgs indexes organisation objects by ID for reference resolution.
	Orgs map[string]Org
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{Orgs: map[string]Org{}}
}

// Merge appends all records and organisation objects of other into db.
func (db *Database) Merge(other *Database) {
	db.Records = append(db.Records, other.Records...)
	for id, o := range other.Orgs {
		db.Orgs[id] = o
	}
}

// ResolveOrgs fills in empty OrgName fields from the Orgs index (RIPE-style
// indirection). Records whose OrgID is unknown keep an empty name; the
// pipeline counts them as unmapped.
func (db *Database) ResolveOrgs() {
	for i := range db.Records {
		r := &db.Records[i]
		if r.OrgName == "" && r.OrgID != "" {
			if o, ok := db.Orgs[r.OrgID]; ok {
				r.OrgName = o.Name
			}
		}
	}
}

// Entry is one (prefix, allocation type) registration after flattening:
// ranges expanded to CIDRs, organization references resolved, duplicates
// collapsed to the latest record.
type Entry struct {
	Prefix   netip.Prefix
	Registry alloc.Registry
	Status   string
	OrgName  string
	Updated  time.Time
}

// FlattenStats accounts for one Flatten pass: Records in, Expanded
// (prefix, status) pairs after range expansion, Entries surviving the
// latest-record-wins dedup. Expanded - Entries is the number of
// de-duplicated WHOIS registrations.
type FlattenStats struct {
	Records  int
	Expanded int
	Entries  int
}

// Deduped returns the number of registrations dropped by the
// latest-record-wins rule.
func (s FlattenStats) Deduped() int { return s.Expanded - s.Entries }

// Flatten expands db into per-prefix entries. For each (prefix, normalized
// status) pair only the most recently updated record survives — the
// paper's rule for handling re-registered blocks. Entries are returned in
// canonical prefix order, then by status, for determinism.
func (db *Database) Flatten() []Entry {
	entries, _ := db.FlattenWithStats()
	return entries
}

// FlattenWithStats is Flatten plus the dedup accounting the pipeline
// trace reports.
func (db *Database) FlattenWithStats() ([]Entry, FlattenStats) {
	db.ResolveOrgs()
	type key struct {
		p      netip.Prefix
		status string
	}
	best := make(map[key]Entry, len(db.Records))
	stats := FlattenStats{Records: len(db.Records)}
	for _, r := range db.Records {
		for _, p := range r.Prefixes {
			stats.Expanded++
			k := key{p, alloc.Normalize(r.Status)}
			e := Entry{Prefix: p, Registry: r.Registry, Status: r.Status, OrgName: r.OrgName, Updated: r.Updated}
			if prev, ok := best[k]; !ok || e.Updated.After(prev.Updated) {
				best[k] = e
			}
		}
	}
	out := make([]Entry, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := netx.Compare(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		return alloc.Normalize(out[i].Status) < alloc.Normalize(out[j].Status)
	})
	stats.Entries = len(out)
	return out, stats
}

// timeLayouts are the timestamp layouts seen across registry dumps, in
// the order parseTime tries them.
var timeLayouts = [...]string{
	time.RFC3339,          // RIPE last-modified: 2024-06-01T10:00:00Z
	"2006-01-02",          // ARIN Updated
	"20060102",            // LACNIC changed, RPSL changed date
	"2006-01-02 15:04:05", // misc
}

// parseTime accepts the timestamp layouts seen across registry dumps.
func parseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	// No two layouts accept the same string, and length and shape say
	// which one could: try that one alone first. Every layout a string
	// fails costs a *time.ParseError quoting it, and a registry dump
	// has one timestamp per object.
	likely := -1
	switch {
	case len(s) > 10 && s[10] == 'T':
		likely = 0
	case len(s) == 10 && s[4] == '-':
		likely = 1
	case len(s) == 8:
		likely = 2
	case len(s) == 19 && s[10] == ' ':
		likely = 3
	}
	if likely >= 0 {
		if t, err := time.Parse(timeLayouts[likely], s); err == nil {
			return t, nil
		}
	}
	for _, l := range timeLayouts {
		if t, err := time.Parse(l, s); err == nil {
			return t, nil
		}
	}
	// RPSL "changed: email 20240601" style: take the last field.
	fields := strings.Fields(s)
	if len(fields) > 1 {
		if t, err := time.Parse("20060102", fields[len(fields)-1]); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("whois: unrecognized timestamp %q", s)
}

// parseBlockSpec parses an address-block specification that is either a
// CIDR prefix ("193.0.0.0/21") or an inclusive range
// ("193.0.0.0 - 193.0.7.255"), returning canonical CIDRs.
func parseBlockSpec(s string) ([]netip.Prefix, error) {
	s = strings.TrimSpace(s)
	// Ranges: "a - b" for either family, or "a-b" for IPv4 (IPv6 addresses
	// contain no '-' so a bare '-' is unambiguous there too, but ':' makes
	// the spaced form the only one registries emit).
	sep := ""
	switch {
	case strings.Contains(s, " - "):
		sep = " - "
	case !strings.Contains(s, ":") && strings.Contains(s, "-"):
		sep = "-"
	}
	if sep != "" {
		first, last, _ := strings.Cut(s, sep)
		fa, err1 := netip.ParseAddr(strings.TrimSpace(first))
		la, err2 := netip.ParseAddr(strings.TrimSpace(last))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("whois: unparseable range %q", s)
		}
		return netx.ParseRange(fa, la)
	}
	if strings.Contains(s, "/") {
		p, err := netx.ParsePrefix(s)
		if err != nil {
			return nil, err
		}
		return []netip.Prefix{p}, nil
	}
	// Bare address: treat as a host block.
	a, err := netip.ParseAddr(s)
	if err != nil {
		return nil, fmt.Errorf("whois: unparseable block spec %q", s)
	}
	return []netip.Prefix{netip.PrefixFrom(a, a.BitLen())}, nil
}

func sortPrefixes(ps []netip.Prefix) { netx.Sort(ps) }
