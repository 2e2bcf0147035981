package whois

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

// ParseLACNIC parses the LACNIC bulk flavour, also used by the NIRs NIC.br
// and NIC.mx. Records are compact paragraphs with CIDR-notation blocks:
//
//	inetnum: 200.160.0.0/20
//	status:  allocated
//	owner:   Nucleo de Inf. e Coord. do Ponto BR
//	ownerid: BR-NUIC-LACNIC
//	country: BR
//	changed: 20240501
//
// reg selects which registry the records are attributed to (LACNIC, NIC.br
// or NIC.mx); the allocation-type vocabulary is LACNIC's either way.
func ParseLACNIC(r io.Reader, reg alloc.Registry) (*Database, error) {
	db := NewDatabase()
	if err := scanLACNIC(r, reg, fieldCopier{}, db.collect); err != nil {
		return nil, err
	}
	return db, nil
}

// The kept fields of a LACNIC block, as blockFields numbers them.
const (
	lacnicInetnum = iota
	lacnicInet6num
	lacnicStatus
	lacnicOwner
	lacnicOwnerID
	lacnicCountry
	lacnicChanged
)

// scanLACNIC is the LACNIC flavour's reader: it calls emit with every
// block as a Record, reused from call to call, Prefixes included — emit
// copies what it keeps.
func scanLACNIC(r io.Reader, reg alloc.Registry, fc fieldCopier, emit func(*Record) error) error {
	if alloc.Parent(reg) != alloc.LACNIC {
		return fmt.Errorf("whois: ParseLACNIC: registry %s is not in the LACNIC zone", reg)
	}
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
		spec := blk.get(lacnicInetnum)
		if len(spec) == 0 {
			spec = blk.get(lacnicInet6num)
		}
		if len(spec) == 0 {
			return fmt.Errorf("whois: lacnic block before line %d has no inetnum", lineNo)
		}
		ps, err := appendBlockSpec(rec.Prefixes[:0], spec)
		if err != nil {
			return err
		}
		rec = Record{
			Prefixes: ps,
			Registry: reg,
			Status:   fc.kept(blk.get(lacnicStatus)),
			OrgName:  fc.kept(blk.get(lacnicOwner)),
			OrgID:    fc.kept(blk.get(lacnicOwnerID)),
			Country:  fc.extra(blk.get(lacnicCountry)),
		}
		if changed := blk.get(lacnicChanged); len(changed) > 0 {
			if t, err := parseTimeBytes(changed); err == nil {
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
		case line[0] == '%' || line[0] == '#':
			// comment
		default:
			colon := bytes.IndexByte(line, ':')
			if colon < 0 {
				return fmt.Errorf("whois: lacnic line %d: malformed %q", lineNo, line)
			}
			name := asciiLowerInPlace(bytes.TrimSpace(line[:colon]))
			value := bytes.TrimSpace(line[colon+1:])
			blk.seen = true
			// Kept values go to the block's buffer; unknown attribute
			// lines cost nothing.
			switch string(name) {
			case "inetnum":
				blk.set(lacnicInetnum, value)
			case "inet6num":
				blk.set(lacnicInet6num, value)
			case "status":
				blk.set(lacnicStatus, value)
			case "owner":
				blk.set(lacnicOwner, value)
			case "ownerid":
				blk.set(lacnicOwnerID, value)
			case "country":
				blk.set(lacnicCountry, value)
			case "changed":
				blk.set(lacnicChanged, value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("whois: lacnic scan: %w", err)
	}
	return flush()
}

// WriteLACNIC serializes db in the LACNIC flavour; ParseLACNIC round-trips
// the output.
func WriteLACNIC(w io.Writer, db *Database) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "% LACNIC-zone bulk whois snapshot (synthetic)")
	fmt.Fprintln(bw)
	for _, rec := range db.Records {
		for _, p := range rec.Prefixes {
			class := "inetnum"
			if !p.Addr().Is4() {
				class = "inet6num"
			}
			fmt.Fprintf(bw, "%s: %s\n", class, p)
			if rec.Status != "" {
				fmt.Fprintf(bw, "status: %s\n", rec.Status)
			}
			if rec.OrgName != "" {
				fmt.Fprintf(bw, "owner: %s\n", rec.OrgName)
			}
			if rec.OrgID != "" {
				fmt.Fprintf(bw, "ownerid: %s\n", rec.OrgID)
			}
			if rec.Country != "" {
				fmt.Fprintf(bw, "country: %s\n", rec.Country)
			}
			if !rec.Updated.IsZero() {
				fmt.Fprintf(bw, "changed: %s\n", rec.Updated.UTC().Format("20060102"))
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
