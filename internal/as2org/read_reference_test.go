package as2org_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// The reference's structs carry the names of Read's: a json type error
// prints the name of the struct it was decoding into, and checkSameRead
// compares error text.
type orgJSON struct {
	Type    string `json:"type"`
	OrgID   string `json:"organizationId"`
	Name    string `json:"name"`
	Country string `json:"country,omitempty"`
}

type asnJSON struct {
	Type  string `json:"type"`
	ASN   uint32 `json:"asn"`
	OrgID string `json:"organizationId"`
}

type siblingJSON struct {
	Type   string   `json:"type"`
	ASNs   []uint32 `json:"asns"`
	Source string   `json:"source"`
}

// readReference is as2org.Read as it was before it scanned canonical
// lines itself — every line through encoding/json twice, once for its
// type and once for its members — kept verbatim as the oracle Read is
// compared against.
func readReference(r io.Reader) (*as2org.Dataset, error) {
	d := as2org.NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("as2org: line %d: %w", lineNo, err)
		}
		switch kind.Type {
		case "Organization":
			var o orgJSON
			if err := json.Unmarshal(line, &o); err != nil {
				return nil, fmt.Errorf("as2org: line %d: %w", lineNo, err)
			}
			d.Orgs[o.OrgID] = o.Name
		case "ASN":
			var a asnJSON
			if err := json.Unmarshal(line, &a); err != nil {
				return nil, fmt.Errorf("as2org: line %d: %w", lineNo, err)
			}
			d.ASes[a.ASN] = as2org.ASInfo{ASN: a.ASN, OrgID: a.OrgID, OrgName: d.Orgs[a.OrgID]}
		case "SiblingSet":
			var s siblingJSON
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("as2org: line %d: %w", lineNo, err)
			}
			d.Siblings = append(d.Siblings, as2org.SiblingSet{ASNs: s.ASNs, Source: s.Source})
		default:
			return nil, fmt.Errorf("as2org: line %d: unknown record type %q", lineNo, kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("as2org: scan: %w", err)
	}
	// Backfill org names onto AS records parsed before their org line.
	for asn, info := range d.ASes {
		if info.OrgName == "" {
			info.OrgName = d.Orgs[info.OrgID]
			d.ASes[asn] = info
		}
	}
	return d, nil
}

// checkSameRead holds Read to the reference on one input: an error on
// both sides (with the same text), or the same dataset — nil and empty
// sibling lists told apart. It returns the dataset Read built, nil
// after an error.
func checkSameRead(t testing.TB, data []byte) *as2org.Dataset {
	t.Helper()
	want, wantErr := readReference(bytes.NewReader(data))
	got, gotErr := as2org.Read(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Read error = %v, reference error = %v\ninput:\n%s", gotErr, wantErr, data)
	}
	if gotErr != nil {
		if g, w := gotErr.Error(), wantErr.Error(); g != w {
			t.Fatalf("Read error = %q, reference error = %q\ninput:\n%s", g, w, data)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("datasets differ\n got %+v\nwant %+v\ninput:\n%s", got, want, data)
	}
	return got
}

// smallWorldDataset is as2org/as2org.jsonl of the synth.SmallConfig()
// world, as WriteDir writes it.
func smallWorldDataset(t testing.TB) []byte {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, as2org.DatasetFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReadMatchesReferenceOnSynthWorld(t *testing.T) {
	d := checkSameRead(t, smallWorldDataset(t))
	if d == nil || len(d.Orgs) == 0 || len(d.ASes) == 0 || len(d.Siblings) == 0 {
		t.Fatalf("synth dataset read as %v: the comparison saw nothing", d)
	}
}

// TestScanTakesEveryLineWriteEmits is the guard on the gain itself: if
// Write drifts from the shape scanLine recognises, every test above
// still passes — through encoding/json — and the load is slow again.
func TestScanTakesEveryLineWriteEmits(t *testing.T) {
	lines := 0
	for _, line := range bytes.Split(smallWorldDataset(t), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		lines++
		if !as2org.ScanLine(line) {
			t.Errorf("line %d declined by the scanner: %s", lines, line)
		}
	}
	if lines < 100 {
		t.Fatalf("only %d lines in the synth dataset", lines)
	}
}

// One record of each type, in the shape Write emits; the hostile table
// below varies one line at a time.
const (
	orgLine = `{"type":"Organization","organizationId":"ORG-1","name":"Example Networks"}`
	asnLine = `{"type":"ASN","asn":64500,"organizationId":"ORG-1"}`
	sibLine = `{"type":"SiblingSet","asns":[64500,64501],"source":"as2org+"}`
)

// hostileDatasets are inputs at and beyond the edge of the scanner's
// subset. ok says whether a reader accepts them — the reference decides
// that; the table only records it.
var hostileDatasets = []struct {
	name  string
	lines []string
	ok    bool
}{
	{"canonical", []string{orgLine, asnLine, sibLine}, true},
	{"empty file", nil, true},
	{"blank lines and CRLF", []string{orgLine + "\r", "", asnLine + "\r", "", sibLine + "\r"}, true},
	{"with a country", []string{strings.Replace(orgLine, `}`, `,"country":"US"}`, 1), asnLine}, true},
	{"raw ampersand", []string{strings.Replace(orgLine, "Example Networks", "AT&T", 1), asnLine}, true},
	{"escaped ampersand", []string{strings.Replace(orgLine, "Example Networks", `AT\u0026T`, 1), asnLine}, true},
	{"escaped quote", []string{strings.Replace(orgLine, "Example Networks", `The \"Best\" ISP`, 1), asnLine}, true},
	{"backslash", []string{strings.Replace(orgLine, "Example Networks", `a\\b`, 1), asnLine}, true},
	{"raw UTF-8", []string{strings.Replace(orgLine, "Example Networks", "Telefónica de España", 1), asnLine}, true},
	{"invalid UTF-8", []string{strings.Replace(orgLine, "Example Networks", "tele\xffnica", 1), asnLine}, true},
	{"DEL", []string{strings.Replace(orgLine, "Example Networks", "a\x7fb", 1), asnLine}, true},
	{"control byte", []string{strings.Replace(orgLine, "Example Networks", "a\x01b", 1)}, false},
	{"reordered keys", []string{`{"name":"Example Networks","type":"Organization","organizationId":"ORG-1"}`, `{"organizationId":"ORG-1","type":"ASN","asn":64500}`, `{"source":"as2org+","asns":[64500,64501],"type":"SiblingSet"}`}, true},
	{"spaces after separators", []string{`{"type": "Organization", "organizationId": "ORG-1", "name": "Example Networks"}`, `{ "type":"ASN","asn": 64500 ,"organizationId":"ORG-1" }`, `{"type":"SiblingSet","asns":[64500, 64501],"source":"as2org+"}`}, true},
	{"trailing space", []string{orgLine + " ", asnLine + "\t", sibLine}, true},
	{"trailing garbage", []string{orgLine, asnLine + "x"}, false},
	{"two objects on a line", []string{orgLine + asnLine}, false},
	{"unknown extra key", []string{strings.Replace(orgLine, `"name"`, `"changed":"20240601","name"`, 1), strings.Replace(asnLine, `}`, `,"opaqueId":"x","source":"ARIN"}`, 1), sibLine}, true},
	{"duplicate key", []string{strings.Replace(orgLine, `"name"`, `"name":"Old Name","name"`, 1), strings.Replace(asnLine, `"asn":64500`, `"asn":1,"asn":64500`, 1), strings.Replace(sibLine, `"asns"`, `"asns":[1,2,3],"asns"`, 1)}, true},
	{"duplicate type", []string{orgLine, `{"type":"Organization",` + asnLine[1:]}, true},
	{"upper-case key", []string{strings.Replace(orgLine, `"type"`, `"TYPE"`, 1), strings.Replace(asnLine, `"asn"`, `"ASN"`, 1), strings.Replace(sibLine, `"asns"`, `"Asns"`, 1)}, true},
	{"null members", []string{strings.Replace(orgLine, `"Example Networks"`, `null`, 1), strings.Replace(asnLine, `64500`, `null`, 1), strings.Replace(sibLine, `[64500,64501]`, `null`, 1)}, true},
	{"null type", []string{strings.Replace(orgLine, `"Organization"`, `null`, 1)}, false},
	{"unknown type", []string{strings.Replace(orgLine, `"Organization"`, `"Person"`, 1)}, false},
	{"mistyped type", []string{strings.Replace(orgLine, `"Organization"`, `7`, 1)}, false},
	{"no type", []string{`{"asn":64500}`}, false},
	{"asn out of range", []string{orgLine, strings.Replace(asnLine, "64500", "4294967296", 1)}, false},
	{"asn at range", []string{orgLine, strings.Replace(asnLine, "64500", "4294967295", 1)}, true},
	{"sibling asn out of range", []string{strings.Replace(sibLine, "64501", "4294967296", 1)}, false},
	{"negative asn", []string{orgLine, strings.Replace(asnLine, "64500", "-1", 1)}, false},
	{"exponent", []string{orgLine, strings.Replace(asnLine, "64500", "1e2", 1)}, false},
	{"fraction", []string{orgLine, strings.Replace(asnLine, "64500", "64500.0", 1)}, false},
	{"leading zero", []string{orgLine, strings.Replace(asnLine, "64500", "064500", 1)}, false},
	{"zero", []string{orgLine, strings.Replace(asnLine, "64500", "0", 1), strings.Replace(sibLine, "64501", "0", 1)}, true},
	{"number as string", []string{orgLine, strings.Replace(asnLine, "64500", `"64500"`, 1)}, false},
	{"nested object value", []string{strings.Replace(orgLine, `"Example Networks"`, `{"en":"Example Networks"}`, 1)}, false},
	{"nested unknown member", []string{strings.Replace(orgLine, `"name"`, `"contacts":{"abuse":["a@example.net",{"x":1}]},"name"`, 1), asnLine}, true},
	{"nested array element", []string{strings.Replace(sibLine, `64501`, `[64501]`, 1)}, false},
	{"empty sibling set", []string{strings.Replace(sibLine, `[64500,64501]`, `[]`, 1)}, true},
	{"singleton sibling set", []string{strings.Replace(sibLine, `[64500,64501]`, `[64500]`, 1)}, true},
	{"no sibling list", []string{`{"type":"SiblingSet","source":"as2org+"}`}, true},
	{"sibling list with a trailing comma", []string{strings.Replace(sibLine, `64501]`, `64501,]`, 1)}, false},
	{"sibling list with a leading comma", []string{strings.Replace(sibLine, `[64500`, `[,64500`, 1)}, false},
	{"sibling list with a string", []string{strings.Replace(sibLine, `64501`, `"64501"`, 1)}, false},
	{"mistyped member of another type", []string{strings.Replace(orgLine, `"name"`, `"asn":"x","asns":5,"name"`, 1), strings.Replace(asnLine, `}`, `,"name":[],"country":1,"source":{}}`, 1), strings.Replace(sibLine, `}`, `,"organizationId":7,"asn":"x"}`, 1)}, true},
	{"mistyped member of another type before one of its own", []string{strings.Replace(orgLine, `"name":"Example Networks"`, `"asn":"x","name":5`, 1)}, false},
	{"mistyped country", []string{strings.Replace(orgLine, `}`, `,"country":1}`, 1)}, false},
	{"mistyped member and no type", []string{`{"organizationId":"ORG-1","asn":[]}`}, false},
	{"ASN line before its org line", []string{asnLine, sibLine, orgLine}, true},
	{"ASN of an organization never named", []string{asnLine}, true},
	{"organization renamed later", []string{orgLine, asnLine, strings.Replace(orgLine, "Example Networks", "Example Networks LLC", 1), strings.Replace(asnLine, "64500", "64501", 1)}, true},
	{"empty strings", []string{`{"type":"Organization","organizationId":"","name":""}`, `{"type":"ASN","asn":64500,"organizationId":""}`, `{"type":"SiblingSet","asns":[1],"source":""}`}, true},
	{"not an object", []string{`["ASN"]`}, false},
	{"bare word", []string{`ASN`}, false},
	{"unterminated string", []string{orgLine, `{"type":"ASN","asn":64500,"organizationId":"ORG-1`}, false},
	{"unterminated object", []string{orgLine, asnLine[:len(asnLine)-1]}, false},
	{"byte order mark", []string{"\xef\xbb\xbf" + orgLine}, false},
}

func TestReadMatchesReferenceOnHostileInput(t *testing.T) {
	for _, tc := range hostileDatasets {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(strings.Join(tc.lines, "\n"))
			for _, in := range [][]byte{data, append(append([]byte(nil), data...), '\n')} {
				if d := checkSameRead(t, in); (d != nil) != tc.ok {
					t.Errorf("accepted = %v, table says %v\ninput:\n%s", d != nil, tc.ok, in)
				}
			}
		})
	}
}

// FuzzReadAS2Org holds Read to the reference on arbitrary bytes: never
// a panic, never a disagreement.
func FuzzReadAS2Org(f *testing.F) {
	for _, tc := range hostileDatasets {
		f.Add([]byte(strings.Join(tc.lines, "\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSameRead(t, data)
	})
}
