package delegated

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

const sample = `2|arin|20240901|4|19700101|20240901|+0000
arin|*|ipv4|*|2|summary
arin|*|ipv6|*|1|summary
arin|*|asn|*|1|summary
arin|US|ipv4|206.238.0.0|65536|20240501|allocated|acct-1
arin|US|ipv4|63.80.52.0|768|20240501|allocated|acct-2
arin|US|ipv6|2600:1f00::|24|20110101|allocated|acct-1
arin|US|asn|701|1|19910101|assigned|acct-3
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Registry != alloc.ARIN || f.Serial != "20240901" {
		t.Errorf("header = %s/%s", f.Registry, f.Serial)
	}
	if len(f.Records) != 4 {
		t.Fatalf("records = %d (summaries must be skipped)", len(f.Records))
	}
	r := f.Records[0]
	if r.Type != TypeIPv4 || r.Start != "206.238.0.0" || r.Value != 65536 || r.OpaqueID != "acct-1" {
		t.Errorf("record 0 = %+v", r)
	}
	if r.Date.Format("20060102") != "20240501" {
		t.Errorf("date = %v", r.Date)
	}
}

func TestRecordPrefixes(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// 65536 addresses from 206.238.0.0 = one /16.
	ps, err := f.Records[0].Prefixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0] != netx.MustParse("206.238.0.0/16") {
		t.Errorf("prefixes = %v", ps)
	}
	// 768 addresses = /23 + /24.
	ps, err = f.Records[1].Prefixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].String() != "63.80.52.0/23" || ps[1].String() != "63.80.54.0/24" {
		t.Errorf("non-power-of-two expansion = %v", ps)
	}
	// IPv6: value is a prefix length.
	ps, err = f.Records[2].Prefixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].String() != "2600:1f00::/24" {
		t.Errorf("v6 prefixes = %v", ps)
	}
	// ASN records yield no prefixes.
	if ps, err := f.Records[3].Prefixes(); err != nil || ps != nil {
		t.Errorf("asn prefixes = %v, %v", ps, err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                   // no header
		"1|arin|x|1|a|b|c\n", // wrong version
		sample + "arin|US|banana|x|1|20240501|allocated\n",      // bad type
		sample + "arin|US|ipv4|1.2.3.4|xx|20240501|allocated\n", // bad value
		sample + "arin|US|ipv4|1.2.3.4\n",                       // short line
	}
	for i, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f := &File{Registry: alloc.RIPE, Serial: "20240901"}
	when := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	f.Records = append(f.Records,
		IPv4RecordFor(alloc.RIPE, "DE", netx.MustParse("193.0.0.0/21"), when, "allocated", "a1"),
		IPv6RecordFor(alloc.RIPE, "DE", netx.MustParse("2a00:1000::/32"), when, "allocated", "a1"),
		ASNRecordFor(alloc.RIPE, "DE", 3320, when, "assigned", "a2"),
	)
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Registry != alloc.RIPE || len(back.Records) != 3 {
		t.Fatalf("roundtrip = %s, %d records", back.Registry, len(back.Records))
	}
	// Summary lines present and correct.
	if !strings.Contains(sb.String(), "ripe|*|ipv4|*|1|summary") {
		t.Errorf("missing summary:\n%s", sb.String())
	}
	ps, err := back.Records[1].Prefixes() // ipv4 sorts after asn
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != netx.MustParse("193.0.0.0/21") {
		t.Errorf("v4 roundtrip = %v", ps)
	}
}

func TestMinPrefixLens(t *testing.T) {
	f := &File{Registry: alloc.ARIN, Serial: "20240901"}
	when := time.Time{}
	f.Records = append(f.Records,
		IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("23.0.0.0/10"), when, "allocated", ""),
		IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("206.238.0.0/16"), when, "allocated", ""),
		IPv6RecordFor(alloc.ARIN, "US", netx.MustParse("2600::/29"), when, "allocated", ""),
		// Reserved space does not count as a delegation.
		Record{Registry: alloc.ARIN, Type: TypeIPv4, Start: "0.0.0.0", Value: 1 << 29, Status: "reserved"},
	)
	v4, v6, err := f.MinPrefixLens()
	if err != nil {
		t.Fatal(err)
	}
	if v4 != 10 {
		t.Errorf("v4 min = %d, want 10", v4)
	}
	if v6 != 29 {
		t.Errorf("v6 min = %d, want 29", v6)
	}
}

func TestWriteDirLoadDir(t *testing.T) {
	dir := t.TempDir()
	files := map[alloc.Registry]*File{
		alloc.ARIN: {Registry: alloc.ARIN, Serial: "20240901", Records: []Record{
			IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("23.0.0.0/12"), time.Time{}, "allocated", "x"),
		}},
		alloc.RIPE: {Registry: alloc.RIPE, Serial: "20240901", Records: []Record{
			IPv6RecordFor(alloc.RIPE, "DE", netx.MustParse("2a00::/32"), time.Time{}, "allocated", "y"),
		}},
	}
	if err := WriteDir(dir, files); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("loaded %d files", len(back))
	}
	if len(back[alloc.ARIN].Records) != 1 || len(back[alloc.RIPE].Records) != 1 {
		t.Error("records lost in roundtrip")
	}
	// Empty dir: no error, empty map.
	empty, err := LoadDir(context.Background(), t.TempDir())
	if err != nil || len(empty) != 0 {
		t.Errorf("empty dir: %v, %v", empty, err)
	}
}

// parseReference is Parse as it stood before it became a collector over
// Scan, kept verbatim: sc.Text and strings.Split per line. Scan must read
// the same records and refuse the same lines with the same words.
func parseReference(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	f := &File{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if !sawHeader {
			if len(fields) < 6 || fields[0] != "2" {
				return nil, fmt.Errorf("delegated: line %d: bad version header", lineNo)
			}
			f.Registry = alloc.Registry(strings.ToUpper(fields[1]))
			if f.Registry == "RIPENCC" || f.Registry == "Ripencc" {
				f.Registry = alloc.RIPE
			}
			f.Serial = fields[2]
			sawHeader = true
			continue
		}
		if len(fields) >= 6 && fields[5] == "summary" {
			continue // summary lines are recomputed on demand
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("delegated: line %d: want >= 7 fields, got %d", lineNo, len(fields))
		}
		value, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("delegated: line %d: value %q: %w", lineNo, fields[4], err)
		}
		rec := Record{
			Registry: f.Registry,
			Country:  fields[1],
			Type:     Type(fields[2]),
			Start:    fields[3],
			Value:    value,
			Status:   fields[6],
		}
		switch rec.Type {
		case TypeIPv4, TypeIPv6, TypeASN:
		default:
			return nil, fmt.Errorf("delegated: line %d: unknown type %q", lineNo, fields[2])
		}
		if fields[5] != "" {
			if t, err := time.Parse("20060102", fields[5]); err == nil {
				rec.Date = t
			}
		}
		if len(fields) > 7 {
			rec.OpaqueID = fields[7]
		}
		f.Records = append(f.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("delegated: scan: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("delegated: empty file (no header)")
	}
	return f, nil
}

func TestScanMatchesReference(t *testing.T) {
	inputs := []string{
		sample,
		"# comment\n\n  " + sample + "\n#tail\n",
		"2|ripencc|20240901|1|19700101|20240901|+0000\nripencc|DE|ipv4|193.0.0.0|2048|20240229|allocated|a|extra|fields\n",
		sample + "arin|US|ipv4|1.2.3.0|+256|20240230|assigned\n",   // signed count, a date that does not exist
		sample + "arin|US|ipv4|1.2.3.0|007|2024|assigned|\n",       // leading zeros, a short date, an empty opaque ID
		sample + "arin||ipv6|2001:db8::|32||reserved\n",            // empty country and date
		sample + "arin|US|ipv4|1.2.3.0|99999999999999999999|x|y\n", // count out of range
		sample + "arin|US|ipv4|1.2.3.0|12a|20240501|allocated\n",   // count not a number
		sample + "arin|US|ipv4|1.2.3.0||20240501|allocated\n",      // no count
		sample + "arin|US|banana|x|1|20240501|allocated\n",         // bad type
		sample + "arin|US|ipv4|1.2.3.4\n",                          // short line
		sample + "arin|*|ipv4|*|2|summary|trailing\n",              // a longer summary line
		"", "#\n", "1|arin|x|1|a|b|c\n", "2|arin|x\n", "2\n",
	}
	for i, in := range inputs {
		want, wantErr := parseReference(strings.NewReader(in))
		got, gotErr := Parse(strings.NewReader(in))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("input %d: err = %v, reference %v", i, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("input %d: parsed %+v, reference %+v", i, got, want)
		}
	}
}

func TestScanKeepsNothing(t *testing.T) {
	var seen []*Record
	f, err := Scan(strings.NewReader(sample), func(rec *Record) error {
		seen = append(seen, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Registry != alloc.ARIN || f.Serial != "20240901" || f.Records != nil {
		t.Errorf("header = %+v", f)
	}
	if len(seen) != 4 || seen[0] != seen[3] {
		t.Errorf("Scan made %d calls, the Record reused: %v", len(seen), len(seen) == 4 && seen[0] == seen[3])
	}
	stop := errors.New("stop")
	if _, err := Scan(strings.NewReader(sample), func(*Record) error { return stop }); err != stop {
		t.Errorf("callback error came back as %v", err)
	}
}

func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	files := map[alloc.Registry]*File{
		alloc.ARIN: {Registry: alloc.ARIN, Serial: "20240901", Records: []Record{
			IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("23.0.0.0/12"), time.Time{}, "allocated", "x"),
			IPv4RecordFor(alloc.ARIN, "US", netx.MustParse("24.0.0.0/9"), time.Time{}, "reserved", "x"),
		}},
		alloc.RIPE: {Registry: alloc.RIPE, Serial: "20240901", Records: []Record{
			IPv6RecordFor(alloc.RIPE, "DE", netx.MustParse("2a00::/32"), time.Time{}, "allocated", "y"),
		}},
	}
	if err := WriteDir(dir, files); err != nil {
		t.Fatal(err)
	}
	lens := map[alloc.Registry]*MinLens{alloc.ARIN: NewMinLens(), alloc.RIPE: NewMinLens()}
	n, err := ScanDir(context.Background(), dir, func(rir alloc.Registry, rec *Record) error {
		return lens[rir].Add(rec)
	})
	if err != nil || n != 2 {
		t.Fatalf("ScanDir = %d files, %v", n, err)
	}
	if *lens[alloc.ARIN] != (MinLens{12, 129}) || *lens[alloc.RIPE] != (MinLens{33, 32}) {
		t.Errorf("minimums = %+v, %+v", *lens[alloc.ARIN], *lens[alloc.RIPE])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanDir(ctx, dir, func(alloc.Registry, *Record) error { return nil }); err != context.Canceled {
		t.Errorf("cancelled ScanDir: %v", err)
	}
}
