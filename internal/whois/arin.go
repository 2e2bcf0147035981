package whois

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// ParseARIN parses ARIN's NetRange-flavoured bulk data. Each paragraph is
// one network registration:
//
//	NetRange:  206.238.0.0 - 206.238.255.255
//	CIDR:      206.238.0.0/16
//	NetName:   PSINET-B3
//	NetType:   Direct Allocation
//	OrgName:   PSINet, Inc.
//	OrgId:     PSI
//	Updated:   2024-05-01
//
// IPv6 registrations use NetRange in "first - last" form as well; the CIDR
// line, when present and consistent, is preferred since it is already
// canonical.
func ParseARIN(r io.Reader) (*Database, error) {
	db := NewDatabase()
	if err := scanARIN(r, fieldCopier{}, db.collect); err != nil {
		return nil, err
	}
	return db, nil
}

// The kept fields of an ARIN block, as blockFields numbers them.
const (
	arinCIDR = iota
	arinNetRange
	arinNetType
	arinOrgName
	arinOrgID
	arinNetName
	arinCountry
	arinUpdated
)

// scanARIN is the ARIN flavour's reader: it calls emit with every block
// as a Record, reused from call to call, Prefixes included — emit copies
// what it keeps.
func scanARIN(r io.Reader, fc fieldCopier, emit func(*Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		blk blockFields
		rec Record
	)
	lineNo := 0
	flush := func() error {
		if !blk.seen {
			return nil
		}
		spec := blk.get(arinCIDR)
		if len(spec) == 0 {
			spec = blk.get(arinNetRange)
		}
		if len(spec) == 0 {
			return fmt.Errorf("whois: arin block before line %d has no NetRange/CIDR", lineNo)
		}
		ps, err := appendARINSpec(rec.Prefixes[:0], spec)
		if err != nil {
			return err
		}
		rec = Record{
			Prefixes: ps,
			Registry: alloc.ARIN,
			Status:   fc.kept(blk.get(arinNetType)),
			OrgName:  fc.kept(blk.get(arinOrgName)),
			OrgID:    fc.kept(blk.get(arinOrgID)),
			NetName:  fc.extra(blk.get(arinNetName)),
			Country:  fc.extra(blk.get(arinCountry)),
		}
		if updated := blk.get(arinUpdated); len(updated) > 0 {
			if t, err := parseTimeBytes(updated); err == nil {
				rec.Updated = t
			}
		}
		blk.reset()
		return emit(&rec)
	}
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		switch {
		case len(bytes.TrimSpace(line)) == 0:
			if err := flush(); err != nil {
				return err
			}
		case line[0] == '#':
			// comment
		default:
			colon := bytes.IndexByte(line, ':')
			if colon < 0 {
				return fmt.Errorf("whois: arin line %d: malformed %q", lineNo, line)
			}
			name := bytes.TrimSpace(line[:colon])
			value := bytes.TrimSpace(line[colon+1:])
			blk.seen = true
			// The string(name) conversions compare in place, and a kept
			// value goes to the block's buffer, not the heap.
			switch string(name) {
			case "CIDR":
				blk.set(arinCIDR, value)
			case "NetRange":
				blk.set(arinNetRange, value)
			case "NetType":
				blk.set(arinNetType, value)
			case "OrgName":
				blk.set(arinOrgName, value)
			case "OrgId":
				blk.set(arinOrgID, value)
			case "NetName":
				blk.set(arinNetName, value)
			case "Country":
				blk.set(arinCountry, value)
			case "Updated":
				blk.set(arinUpdated, value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("whois: arin scan: %w", err)
	}
	return flush()
}

// appendARINSpec handles ARIN's CIDR field, which may list several
// comma-separated CIDRs, or a NetRange.
func appendARINSpec(dst []netip.Prefix, spec []byte) ([]netip.Prefix, error) {
	for {
		part, rest, more := bytes.Cut(spec, []byte(","))
		var err error
		if dst, err = appendBlockSpec(dst, part); err != nil {
			return nil, err
		}
		if !more {
			return dst, nil
		}
		spec = rest
	}
}

// WriteARIN serializes db in ARIN's NetRange flavour; ParseARIN
// round-trips the output.
func WriteARIN(w io.Writer, db *Database) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# ARIN bulk whois snapshot (synthetic)")
	fmt.Fprintln(bw)
	for _, rec := range db.Records {
		for _, p := range rec.Prefixes {
			fmt.Fprintf(bw, "NetRange: %s - %s\n", p.Addr(), netx.LastAddr(p))
			fmt.Fprintf(bw, "CIDR: %s\n", p)
			if rec.NetName != "" {
				fmt.Fprintf(bw, "NetName: %s\n", rec.NetName)
			}
			if rec.Status != "" {
				fmt.Fprintf(bw, "NetType: %s\n", rec.Status)
			}
			if rec.OrgName != "" {
				fmt.Fprintf(bw, "OrgName: %s\n", rec.OrgName)
			}
			if rec.OrgID != "" {
				fmt.Fprintf(bw, "OrgId: %s\n", rec.OrgID)
			}
			if rec.Country != "" {
				fmt.Fprintf(bw, "Country: %s\n", rec.Country)
			}
			if !rec.Updated.IsZero() {
				fmt.Fprintf(bw, "Updated: %s\n", rec.Updated.UTC().Format("2006-01-02"))
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
