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
	"bytes"
	"fmt"
	"net/netip"
	"slices"
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

// collect is the emit callback of the flavour parsers that fill a
// Database: it keeps a copy of rec, which the reader reuses.
func (db *Database) collect(rec *Record) error {
	r := *rec
	r.Prefixes = slices.Clone(rec.Prefixes)
	db.Records = append(db.Records, r)
	return nil
}

// fieldCopier copies record fields off a reader's reused buffer. With a
// run builder — the directory loader's — the fields a flattened entry
// keeps (status, organization name and ID), which a registry dump
// repeats from block to block, are interned into the run's string table,
// and the two it does not keep (NetName, Country) are never allocated.
// Without one every field is a string of its own: the Records a Parse
// function returns carry them all.
type fieldCopier struct{ run *runBuilder }

func (c fieldCopier) kept(b []byte) string {
	switch {
	case c.run == nil:
		return string(b)
	case len(b) == 0:
		return ""
	}
	return c.run.strs[c.run.idBytes(b)]
}

func (c fieldCopier) extra(b []byte) string {
	if c.run != nil {
		return ""
	}
	return string(b)
}

// blockFields holds the kept fields of the paragraph a line-oriented
// reader (ARIN, LACNIC) is in, as ranges of one buffer reused from block
// to block, so that no line allocates. Each flavour numbers its fields.
type blockFields struct {
	buf  []byte
	at   [8]struct{ start, end int }
	seen bool // the block has an attribute line, kept or not
}

// set records value v for field i; a repeated attribute's last value
// stands.
func (f *blockFields) set(i int, v []byte) {
	f.at[i].start = len(f.buf)
	f.buf = append(f.buf, v...)
	f.at[i].end = len(f.buf)
}

// get returns field i, empty when the block has none.
func (f *blockFields) get(i int) []byte { return f.buf[f.at[i].start:f.at[i].end] }

func (f *blockFields) reset() { *f = blockFields{buf: f.buf[:0]} }

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

// parseTimeBytes is parseTime off a reader's buffer. The four layouts in
// their plain UTC form — all a registry dump writes — are read in place;
// anything else, a date that does not exist included, is parseTime's to
// accept or refuse.
func parseTimeBytes(b []byte) (time.Time, error) {
	s := bytes.TrimSpace(b)
	var date, clock []byte // "2006-01-02" or "20060102"; "15:04:05" or none
	switch {
	case len(s) == 20 && s[10] == 'T' && s[19] == 'Z':
		date, clock = s[:10], s[11:19]
	case len(s) == 19 && s[10] == ' ':
		date, clock = s[:10], s[11:]
	case len(s) == 10 || len(s) == 8:
		date = s
	}
	monthAt, dayAt := 4, 6
	if len(date) == 10 {
		monthAt, dayAt = 5, 8
		if date[4] != '-' || date[7] != '-' {
			date = nil
		}
	}
	y, okY := digits(date, 0, 4)
	m, okM := digits(date, monthAt, monthAt+2)
	d, okD := digits(date, dayAt, dayAt+2)
	hh, mm, ss, okClock := 0, 0, 0, true
	if clock != nil {
		var okH, okMin, okS bool
		hh, okH = digits(clock, 0, 2)
		mm, okMin = digits(clock, 3, 5)
		ss, okS = digits(clock, 6, 8)
		okClock = okH && okMin && okS && clock[2] == ':' && clock[5] == ':' && hh < 24 && mm < 60 && ss < 60
	}
	if okY && okM && okD && okClock {
		// time.Date carries a day past the month's end into the next
		// month, where time.Parse refuses it.
		if t := time.Date(y, time.Month(m), d, hh, mm, ss, 0, time.UTC); t.Day() == d && t.Month() == time.Month(m) {
			return t, nil
		}
	}
	return parseTime(string(b))
}

// digits reads b[from:to] as a decimal number.
func digits(b []byte, from, to int) (int, bool) {
	if len(b) < to {
		return 0, false
	}
	n := 0
	for _, c := range b[from:to] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// appendBlockSpec is parseBlockSpec off a reader's buffer, into the
// caller's: the two forms a registry dump writes, a CIDR prefix and a
// spaced range of plain addresses, are read in place, and anything else
// is parseBlockSpec's to accept or refuse.
func appendBlockSpec(dst []netip.Prefix, spec []byte) ([]netip.Prefix, error) {
	s := bytes.TrimSpace(spec)
	if first, last, ok := bytes.Cut(s, []byte(" - ")); ok {
		fa, ok1 := netx.ParseAddrBytes(bytes.TrimSpace(first))
		la, ok2 := netx.ParseAddrBytes(bytes.TrimSpace(last))
		if ok1 && ok2 {
			return netx.AppendRange(dst, fa, la)
		}
	} else if p, ok := netx.ParsePrefixBytes(s); ok {
		return append(dst, p.Masked()), nil
	}
	ps, err := parseBlockSpec(string(spec))
	return append(dst, ps...), err
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
