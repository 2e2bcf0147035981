package delegated

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/intern"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// Type is the resource type of one record.
type Type string

// Resource types.
const (
	TypeIPv4 Type = "ipv4"
	TypeIPv6 Type = "ipv6"
	TypeASN  Type = "asn"
)

// Record is one delegated resource.
type Record struct {
	Registry alloc.Registry
	Country  string
	Type     Type
	// Start is the first address (ipv4/ipv6) in string form, or the
	// first ASN rendered in decimal.
	Start string
	// Value is the address count (ipv4), the prefix length (ipv6), or
	// the ASN count (asn).
	Value int
	Date  time.Time
	// Status is allocated/assigned/available/reserved.
	Status string
	// OpaqueID links records of the same registry account.
	OpaqueID string
}

// Prefixes converts an address record to canonical CIDRs. IPv4 counts
// that are not a power of two expand to several blocks; ASN records
// return nil.
func (r *Record) Prefixes() ([]netip.Prefix, error) {
	switch r.Type {
	case TypeIPv4:
		first, err := netip.ParseAddr(r.Start)
		if err != nil || !first.Is4() {
			return nil, fmt.Errorf("delegated: bad ipv4 start %q", r.Start)
		}
		if r.Value <= 0 {
			return nil, fmt.Errorf("delegated: bad ipv4 count %d", r.Value)
		}
		f4 := first.As4()
		u := uint32(f4[0])<<24 | uint32(f4[1])<<16 | uint32(f4[2])<<8 | uint32(f4[3])
		lastU := uint64(u) + uint64(r.Value) - 1
		if lastU > 0xFFFFFFFF {
			return nil, fmt.Errorf("delegated: ipv4 range overflows address space")
		}
		last := netip.AddrFrom4([4]byte{byte(lastU >> 24), byte(lastU >> 16), byte(lastU >> 8), byte(lastU)})
		return netx.ParseRange(first, last)
	case TypeIPv6:
		first, err := netip.ParseAddr(r.Start)
		if err != nil || first.Is4() {
			return nil, fmt.Errorf("delegated: bad ipv6 start %q", r.Start)
		}
		if r.Value < 0 || r.Value > 128 {
			return nil, fmt.Errorf("delegated: bad ipv6 length %d", r.Value)
		}
		return []netip.Prefix{netip.PrefixFrom(first, r.Value).Masked()}, nil
	default:
		return nil, nil
	}
}

// File is one registry's delegated-extended file.
type File struct {
	Registry alloc.Registry
	Serial   string // the file date, YYYYMMDD
	Records  []Record
}

// Parse reads a delegated-extended file.
func Parse(r io.Reader) (*File, error) {
	var recs []Record
	f, err := Scan(r, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.Records = recs
	return f, nil
}

// Scan reads a delegated-extended file record by record, keeping none:
// it calls fn with each one, in file order, and returns the file's header
// — a File without Records. The Record is reused from call to call.
func Scan(r io.Reader, fn func(*Record) error) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		f      *File
		rec    Record
		fields [8][]byte
	)
	// Country codes and statuses are a handful of words repeated on
	// every line.
	words := intern.New(256)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		n := 0 // fields on the line; the first eight are kept
		for rest, more := line, true; more; n++ {
			var field []byte
			field, rest, more = bytes.Cut(rest, []byte("|"))
			if n < len(fields) {
				fields[n] = field
			}
		}
		if f == nil {
			if n < 6 || string(fields[0]) != "2" {
				return nil, fmt.Errorf("delegated: line %d: bad version header", lineNo)
			}
			f = &File{Registry: alloc.Registry(strings.ToUpper(string(fields[1]))), Serial: string(fields[2])}
			if f.Registry == "RIPENCC" {
				f.Registry = alloc.RIPE
			}
			continue
		}
		if n >= 6 && string(fields[5]) == "summary" {
			continue // summary lines are recomputed on demand
		}
		if n < 7 {
			return nil, fmt.Errorf("delegated: line %d: want >= 7 fields, got %d", lineNo, n)
		}
		value, err := atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("delegated: line %d: value %q: %w", lineNo, fields[4], err)
		}
		rec = Record{
			Registry: f.Registry,
			Country:  words.Bytes(fields[1]),
			Start:    string(fields[3]),
			Value:    value,
			Status:   words.Bytes(fields[6]),
		}
		switch string(fields[2]) {
		case string(TypeIPv4):
			rec.Type = TypeIPv4
		case string(TypeIPv6):
			rec.Type = TypeIPv6
		case string(TypeASN):
			rec.Type = TypeASN
		default:
			return nil, fmt.Errorf("delegated: line %d: unknown type %q", lineNo, fields[2])
		}
		rec.Date, _ = parseDate(fields[5])
		if n > 7 {
			rec.OpaqueID = string(fields[7])
		}
		if err := fn(&rec); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("delegated: scan: %w", err)
	}
	if f == nil {
		return nil, fmt.Errorf("delegated: empty file (no header)")
	}
	return f, nil
}

// atoi is strconv.Atoi off the scanner's buffer: plain digits are read
// in place, anything else is strconv's to read or refuse.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 9 {
		return strconv.Atoi(string(b))
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// parseDate reads a YYYYMMDD date as time.Parse("20060102") does: UTC
// midnight, and nothing for a date that does not exist.
func parseDate(b []byte) (time.Time, bool) {
	if len(b) != 8 {
		return time.Time{}, false
	}
	var ymd int
	for _, c := range b {
		if c < '0' || c > '9' {
			return time.Time{}, false
		}
		ymd = ymd*10 + int(c-'0')
	}
	y, m, d := ymd/10000, time.Month(ymd/100%100), ymd%100
	// time.Date carries a day past the month's end into the next month.
	t := time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	if t.Month() != m || t.Day() != d {
		return time.Time{}, false
	}
	return t, true
}

// Write serializes the file with a version header and summary lines.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	counts := map[Type]int{}
	for _, r := range f.Records {
		counts[r.Type]++
	}
	reg := strings.ToLower(string(f.Registry))
	fmt.Fprintf(bw, "2|%s|%s|%d|19700101|%s|+0000\n", reg, f.Serial, len(f.Records), f.Serial)
	for _, ty := range []Type{TypeASN, TypeIPv4, TypeIPv6} {
		fmt.Fprintf(bw, "%s|*|%s|*|%d|summary\n", reg, ty, counts[ty])
	}
	recs := make([]Record, len(f.Records))
	copy(recs, f.Records)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Type != recs[j].Type {
			return recs[i].Type < recs[j].Type
		}
		return recs[i].Start < recs[j].Start
	})
	for _, r := range recs {
		date := ""
		if !r.Date.IsZero() {
			date = r.Date.UTC().Format("20060102")
		}
		fmt.Fprintf(bw, "%s|%s|%s|%s|%d|%s|%s", reg, r.Country, r.Type, r.Start, r.Value, date, r.Status)
		if r.OpaqueID != "" {
			fmt.Fprintf(bw, "|%s", r.OpaqueID)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// IPv4RecordFor builds an ipv4 record for a CIDR block.
func IPv4RecordFor(reg alloc.Registry, country string, p netip.Prefix, date time.Time, status, opaqueID string) Record {
	return Record{
		Registry: reg, Country: country, Type: TypeIPv4,
		Start: p.Masked().Addr().String(), Value: 1 << (32 - p.Bits()),
		Date: date, Status: status, OpaqueID: opaqueID,
	}
}

// IPv6RecordFor builds an ipv6 record for a CIDR block.
func IPv6RecordFor(reg alloc.Registry, country string, p netip.Prefix, date time.Time, status, opaqueID string) Record {
	return Record{
		Registry: reg, Country: country, Type: TypeIPv6,
		Start: p.Masked().Addr().String(), Value: p.Bits(),
		Date: date, Status: status, OpaqueID: opaqueID,
	}
}

// ASNRecordFor builds an asn record.
func ASNRecordFor(reg alloc.Registry, country string, asn uint32, date time.Time, status, opaqueID string) Record {
	return Record{
		Registry: reg, Country: country, Type: TypeASN,
		Start: strconv.FormatUint(uint64(asn), 10), Value: 1,
		Date: date, Status: status, OpaqueID: opaqueID,
	}
}

// MinLens folds records into the most coarse (smallest) IPv4 and IPv6
// prefix lengths delegated — the footnote-2 verification that no
// delegation is larger than /8 (IPv4) or /16 (IPv6). Start from
// NewMinLens.
type MinLens struct{ V4, V6 int }

// NewMinLens returns the fold of no records: lengths no prefix has.
func NewMinLens() *MinLens { return &MinLens{V4: 33, V6: 129} }

// Add folds in one record. Records that do not delegate addresses (asn,
// reserved/available) are skipped.
func (m *MinLens) Add(r *Record) error {
	if r.Status != "allocated" && r.Status != "assigned" {
		return nil
	}
	switch r.Type {
	case TypeIPv4:
		// The coarsest block in a count of N addresses is
		// /(32 - floor(log2 N)).
		if r.Value <= 0 {
			return fmt.Errorf("delegated: bad ipv4 count %d", r.Value)
		}
		m.V4 = min(m.V4, 32-(63-bits.LeadingZeros64(uint64(r.Value))))
	case TypeIPv6:
		m.V6 = min(m.V6, r.Value)
	}
	return nil
}

// MinPrefixLens returns the MinLens of the file's records.
func (f *File) MinPrefixLens() (v4, v6 int, err error) {
	m := NewMinLens()
	for i := range f.Records {
		if err := m.Add(&f.Records[i]); err != nil {
			return 0, 0, err
		}
	}
	return m.V4, m.V6, nil
}
