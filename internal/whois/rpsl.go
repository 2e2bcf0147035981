package whois

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/intern"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// rpslObject is one paragraph of "attribute: value" lines. Repeated
// attributes accumulate in order. The scanner reuses one object (and
// its value arena) across paragraphs, so a bulk parse allocates per
// kept field, not per line; callers materialize the few values they
// need via first/all and must not retain the object past the callback.
type rpslObject struct {
	class string // first attribute name, identifies the object type
	attrs []rpslAttr
	arena []byte // concatenated attribute values, addressed by rpslAttr
}

// rpslAttr is one attribute: an interned lowercase name and the value's
// bounds in the object's arena.
type rpslAttr struct {
	name       string
	start, end int32
}

func (o *rpslObject) reset() {
	o.class = ""
	o.attrs = o.attrs[:0]
	o.arena = o.arena[:0]
}

// first returns the value of the first attribute called name, as a
// range of the arena.
func (o *rpslObject) first(name string) ([]byte, bool) {
	for _, a := range o.attrs {
		if a.name == name {
			return o.arena[a.start:a.end], true
		}
	}
	return nil, false
}

// last returns the value of the last attribute called name.
func (o *rpslObject) last(name string) ([]byte, bool) {
	for i := len(o.attrs) - 1; i >= 0; i-- {
		if a := o.attrs[i]; a.name == name {
			return o.arena[a.start:a.end], true
		}
	}
	return nil, false
}

// asciiLowerInPlace lowercases ASCII letters in b, scribbling on the
// scanner's buffer (which the parser owns until the next Scan call).
func asciiLowerInPlace(b []byte) []byte {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return b
}

// scanRPSL reads paragraph-separated RPSL objects. Lines beginning with
// '%' or '#' are comments; a line starting with whitespace or '+' continues
// the previous attribute value. The object passed to fn is reused: fn
// must copy out anything it keeps.
func scanRPSL(r io.Reader, fn func(*rpslObject) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	names := intern.New(32)
	cur := &rpslObject{}
	flush := func() error {
		if len(cur.attrs) == 0 {
			return nil
		}
		err := fn(cur)
		cur.reset()
		return err
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		trimmed := bytes.TrimSpace(line)
		switch {
		case len(trimmed) == 0:
			if err := flush(); err != nil {
				return err
			}
		case line[0] == '%' || line[0] == '#':
			// comment
		case line[0] == ' ' || line[0] == '\t' || line[0] == '+':
			if len(cur.attrs) == 0 {
				return fmt.Errorf("whois: rpsl line %d: continuation with no attribute", lineNo)
			}
			cont := bytes.TrimSpace(bytes.TrimPrefix(trimmed, []byte("+")))
			// The last attribute's value is always the arena tail, so a
			// continuation extends it in place.
			last := &cur.attrs[len(cur.attrs)-1]
			if last.end > last.start && len(cont) > 0 {
				cur.arena = append(cur.arena, ' ')
			}
			cur.arena = append(cur.arena, cont...)
			last.end = int32(len(cur.arena))
		default:
			colon := bytes.IndexByte(line, ':')
			if colon < 0 {
				return fmt.Errorf("whois: rpsl line %d: malformed attribute %q", lineNo, line)
			}
			name := names.Bytes(asciiLowerInPlace(bytes.TrimSpace(line[:colon])))
			value := bytes.TrimSpace(line[colon+1:])
			if len(cur.attrs) == 0 {
				cur.class = name
			}
			start := int32(len(cur.arena))
			cur.arena = append(cur.arena, value...)
			cur.attrs = append(cur.attrs, rpslAttr{name: name, start: start, end: int32(len(cur.arena))})
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("whois: rpsl scan: %w", err)
	}
	return flush()
}

// ParseRPSL parses an RPSL-flavoured bulk database (RIPE, APNIC, AFRINIC,
// KRNIC, TWNIC) into a Database. inetnum and inet6num objects become
// Records; organisation objects populate the Orgs index. For RIPE the
// organization name is resolved later via the org: reference; for the
// other registries it is taken from the first descr line.
func ParseRPSL(r io.Reader, reg alloc.Registry) (*Database, error) {
	db := NewDatabase()
	if err := scanRPSLRecords(r, reg, fieldCopier{}, db.collect, func(o Org) { db.Orgs[o.ID] = o }); err != nil {
		return nil, err
	}
	return db, nil
}

// scanRPSLRecords is the RPSL flavour's reader: it calls emit with every
// inetnum and inet6num object as a Record and org with every organisation
// object that has an ID. The Record is reused from call to call, its
// Prefixes included: emit copies what it keeps.
func scanRPSLRecords(r io.Reader, reg alloc.Registry, fc fieldCopier, emit func(*Record) error, org func(Org)) error {
	useOrgRef := reg == alloc.RIPE
	var rec Record
	return scanRPSL(r, func(o *rpslObject) error {
		switch o.class {
		case "inetnum", "inet6num":
			spec, _ := o.first(o.class)
			prefixes, err := appendBlockSpec(rec.Prefixes[:0], spec)
			if err != nil {
				return fmt.Errorf("%s %q: %w", o.class, spec, err)
			}
			rec = Record{Prefixes: prefixes, Registry: reg}
			status, _ := o.first("status")
			rec.Status = fc.kept(status)
			netname, _ := o.first("netname")
			rec.NetName = fc.extra(netname)
			country, _ := o.first("country")
			rec.Country = fc.extra(country)
			if useOrgRef {
				id, _ := o.first("org")
				rec.OrgID = fc.kept(id)
			}
			// Outside RIPE the holder is the first descr line; legacy RIPE
			// objects without an org: reference carry it there too.
			if rec.OrgID == "" {
				descr, _ := o.first("descr")
				rec.OrgName = fc.kept(descr)
			}
			if lm, ok := o.first("last-modified"); ok {
				if t, err := parseTimeBytes(lm); err == nil {
					rec.Updated = t
				}
			} else if ch, ok := o.last("changed"); ok {
				if t, err := parseTimeBytes(ch); err == nil {
					rec.Updated = t
				}
			}
			return emit(&rec)
		case "organisation":
			if id, _ := o.first("organisation"); len(id) > 0 {
				name, _ := o.first("org-name")
				country, _ := o.first("country")
				org(Org{ID: fc.kept(id), Name: fc.kept(name), Country: fc.extra(country)})
			}
		}
		return nil
	})
}

// WriteRPSL serializes db into the RPSL flavour used by reg, producing
// text that ParseRPSL round-trips. The synthetic-world generator uses it
// to materialize registry dumps on disk.
func WriteRPSL(w io.Writer, db *Database, reg alloc.Registry) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% %s bulk whois snapshot (synthetic)\n\n", reg)
	useOrgRef := reg == alloc.RIPE
	for _, rec := range db.Records {
		for _, p := range rec.Prefixes {
			class, spec := "inetnum", ""
			if p.Addr().Is4() {
				spec = fmt.Sprintf("%s - %s", p.Addr(), netx.LastAddr(p))
			} else {
				class, spec = "inet6num", p.String()
			}
			fmt.Fprintf(bw, "%s: %s\n", class, spec)
			if rec.NetName != "" {
				fmt.Fprintf(bw, "netname: %s\n", rec.NetName)
			}
			if useOrgRef && rec.OrgID != "" {
				fmt.Fprintf(bw, "org: %s\n", rec.OrgID)
			} else if rec.OrgName != "" {
				fmt.Fprintf(bw, "descr: %s\n", rec.OrgName)
			}
			if rec.Country != "" {
				fmt.Fprintf(bw, "country: %s\n", rec.Country)
			}
			if rec.Status != "" {
				fmt.Fprintf(bw, "status: %s\n", rec.Status)
			}
			if !rec.Updated.IsZero() {
				fmt.Fprintf(bw, "last-modified: %s\n", rec.Updated.UTC().Format("2006-01-02T15:04:05Z"))
			}
			fmt.Fprintln(bw)
		}
	}
	ids := make([]string, 0, len(db.Orgs))
	for id := range db.Orgs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		o := db.Orgs[id]
		fmt.Fprintf(bw, "organisation: %s\norg-name: %s\n", o.ID, o.Name)
		if o.Country != "" {
			fmt.Fprintf(bw, "country: %s\n", o.Country)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
