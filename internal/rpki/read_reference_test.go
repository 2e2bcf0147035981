package rpki_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// The reference's structs carry the names of Read's: a json type error
// prints the name of the struct it was decoding into, and checkSameRead
// compares error text.
type certJSON struct {
	Kind      string   `json:"kind"`
	SKI       string   `json:"ski"`
	AKI       string   `json:"aki,omitempty"`
	Subject   string   `json:"subject"`
	Registry  string   `json:"registry"`
	Resources []string `json:"resources"`
	TA        bool     `json:"trustAnchor,omitempty"`
}

type roaJSON struct {
	Kind      string `json:"kind"`
	Prefix    string `json:"prefix"`
	MaxLength int    `json:"maxLength"`
	ASN       uint32 `json:"asn"`
	CertSKI   string `json:"certSKI"`
}

// readReference is rpki.Read as it was before it scanned canonical
// lines itself — every line through encoding/json twice, once for its
// kind and once for its members — kept verbatim as the oracle Read is
// compared against.
func readReference(rd io.Reader) (*rpki.Repository, error) {
	repo := rpki.NewRepository()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
		}
		switch kind.Kind {
		case "cer":
			var cj certJSON
			if err := json.Unmarshal(line, &cj); err != nil {
				return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
			}
			c := rpki.Certificate{SKI: cj.SKI, AKI: cj.AKI, Subject: cj.Subject, Registry: alloc.Registry(cj.Registry), TrustAnchor: cj.TA}
			for _, s := range cj.Resources {
				p, err := netip.ParsePrefix(s)
				if err != nil {
					return nil, fmt.Errorf("rpki: line %d: resource %q: %w", lineNo, s, err)
				}
				c.Resources = append(c.Resources, p.Masked())
			}
			repo.AddCert(c)
		case "roa":
			var rj roaJSON
			if err := json.Unmarshal(line, &rj); err != nil {
				return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
			}
			p, err := netip.ParsePrefix(rj.Prefix)
			if err != nil {
				return nil, fmt.Errorf("rpki: line %d: prefix %q: %w", lineNo, rj.Prefix, err)
			}
			repo.AddROA(rpki.ROA{Prefix: p.Masked(), MaxLength: rj.MaxLength, ASN: rj.ASN, CertSKI: rj.CertSKI})
		default:
			return nil, fmt.Errorf("rpki: line %d: unknown object kind %q", lineNo, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rpki: scan: %w", err)
	}
	if err := repo.Build(); err != nil {
		return nil, err
	}
	return repo, nil
}

// checkSameRead holds Read to the reference on one input: an error on
// both sides (with the same text), or the same objects in the same
// order. It returns the repository Read built, nil after an error.
func checkSameRead(t testing.TB, data []byte) *rpki.Repository {
	t.Helper()
	want, wantErr := readReference(bytes.NewReader(data))
	got, gotErr := rpki.Read(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Read error = %v, reference error = %v\ninput:\n%s", gotErr, wantErr, data)
	}
	if gotErr != nil {
		if g, w := gotErr.Error(), wantErr.Error(); g != w {
			t.Fatalf("Read error = %q, reference error = %q\ninput:\n%s", g, w, data)
		}
		return nil
	}
	if !reflect.DeepEqual(got.Certs, want.Certs) {
		t.Fatalf("certificates differ\n got %+v\nwant %+v\ninput:\n%s", got.Certs, want.Certs, data)
	}
	if !reflect.DeepEqual(got.ROAs, want.ROAs) {
		t.Fatalf("ROAs differ\n got %+v\nwant %+v\ninput:\n%s", got.ROAs, want.ROAs, data)
	}
	return got
}

// smallWorldSnapshot is rpki/snapshot.jsonl of the synth.SmallConfig()
// world, as WriteDir writes it.
func smallWorldSnapshot(t testing.TB) []byte {
	t.Helper()
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, rpki.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReadMatchesReferenceOnSynthWorld(t *testing.T) {
	data := smallWorldSnapshot(t)
	repo := checkSameRead(t, data)
	if repo == nil || len(repo.Certs) == 0 || len(repo.ROAs) == 0 {
		t.Fatalf("synth snapshot read as %v: the comparison saw nothing", repo)
	}
	// The same file through LoadDir, the way a build reads it.
	dir := t.TempDir()
	if err := repo.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := rpki.LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Certs, repo.Certs) || !reflect.DeepEqual(back.ROAs, repo.ROAs) {
		t.Fatal("WriteDir → LoadDir changed the objects")
	}
}

// TestScanTakesEveryLineWriteEmits is the guard on the gain itself: if
// Write drifts from the shape scanLine recognises, every test above
// still passes — through encoding/json — and the load is slow again.
func TestScanTakesEveryLineWriteEmits(t *testing.T) {
	lines := 0
	for _, line := range bytes.Split(smallWorldSnapshot(t), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		lines++
		if !rpki.ScanLine(line) {
			t.Errorf("line %d declined by the scanner: %s", lines, line)
		}
	}
	if lines < 100 {
		t.Fatalf("only %d lines in the synth snapshot", lines)
	}
}

// Two certificates and a ROA, in the shape Write emits; the hostile
// table below varies one line at a time.
const (
	taLine     = `{"kind":"cer","ski":"TA:X","subject":"X-root","registry":"ARIN","resources":["10.0.0.0/8","2001:db8::/32"],"trustAnchor":true}`
	memberLine = `{"kind":"cer","ski":"AA:01","aki":"TA:X","subject":"member-1","registry":"ARIN","resources":["10.1.0.0/16"]}`
	roaLine    = `{"kind":"roa","prefix":"10.1.2.0/24","maxLength":24,"asn":64500,"certSKI":"AA:01"}`
)

// hostileSnapshots are inputs at and beyond the edge of the scanner's
// subset. ok says whether a reader accepts them — the reference decides
// that; the table only records it.
var hostileSnapshots = []struct {
	name  string
	lines []string
	ok    bool
}{
	{"canonical", []string{taLine, memberLine, roaLine}, true},
	{"empty file", nil, true},
	{"blank lines and CRLF", []string{taLine + "\r", "", memberLine + "\r", "", roaLine + "\r"}, true},
	{"raw ampersand", []string{taLine, strings.Replace(memberLine, "member-1", "AT&T", 1), roaLine}, true},
	{"escaped ampersand", []string{taLine, strings.Replace(memberLine, "member-1", `AT\u0026T`, 1), roaLine}, true},
	{"escaped quote", []string{taLine, strings.Replace(memberLine, "member-1", `the \"best\" isp`, 1), roaLine}, true},
	{"backslash", []string{taLine, strings.Replace(memberLine, "member-1", `a\\b`, 1), roaLine}, true},
	{"raw UTF-8", []string{taLine, strings.Replace(memberLine, "member-1", "Telefónica", 1), roaLine}, true},
	{"invalid UTF-8", []string{taLine, strings.Replace(memberLine, "member-1", "tele\xffnica", 1), roaLine}, true},
	{"DEL and control bytes", []string{taLine, strings.Replace(memberLine, "member-1", "a\x7fb", 1), strings.Replace(roaLine, "AA:01", "AA:\x0101", 1)}, false},
	{"reordered keys", []string{taLine, `{"ski":"AA:01","resources":["10.1.0.0/16"],"registry":"ARIN","kind":"cer","subject":"member-1","aki":"TA:X"}`, `{"certSKI":"AA:01","asn":64500,"kind":"roa","maxLength":24,"prefix":"10.1.2.0/24"}`}, true},
	{"spaces after separators", []string{taLine, strings.NewReplacer(":", ": ", ",", ", ").Replace(roaLine[:20]) + roaLine[20:], `{ "kind" : "cer" , "ski":"AA:01","aki":"TA:X","subject":"member-1","registry":"ARIN","resources":[ "10.1.0.0/16" ] }`}, true},
	{"trailing space", []string{taLine + " ", memberLine + "\t", roaLine}, true},
	{"trailing garbage", []string{taLine, memberLine + "x", roaLine}, false},
	{"two objects on a line", []string{taLine, memberLine + roaLine}, false},
	{"unknown extra key", []string{taLine, strings.Replace(memberLine, `"subject"`, `"notBefore":"2024-01-01","subject"`, 1), strings.Replace(roaLine, `}`, `,"tal":"arin"}`, 1)}, true},
	{"duplicate key", []string{taLine, strings.Replace(memberLine, `"ski":"AA:01"`, `"ski":"ZZ:99","ski":"AA:01"`, 1), strings.Replace(roaLine, `"asn":64500`, `"asn":1,"asn":64500`, 1)}, true},
	{"duplicate kind", []string{taLine, memberLine, `{"kind":"cer",` + roaLine[1:]}, true},
	{"upper-case key", []string{taLine, strings.Replace(memberLine, `"kind"`, `"KIND"`, 1), strings.Replace(roaLine, `"maxLength"`, `"MAXLENGTH"`, 1)}, true},
	{"null members", []string{strings.Replace(taLine, `"subject"`, `"aki":null,"subject"`, 1), strings.Replace(memberLine, `"member-1"`, `null`, 1), roaLine}, true},
	{"null kind", []string{taLine, strings.Replace(memberLine, `"cer"`, `null`, 1)}, false},
	{"unknown kind", []string{taLine, strings.Replace(memberLine, `"cer"`, `"crl"`, 1)}, false},
	{"mistyped kind", []string{taLine, strings.Replace(memberLine, `"cer"`, `5`, 1)}, false},
	{"no kind", []string{taLine, `{"ski":"AA:01"}`}, false},
	{"asn out of range", []string{taLine, memberLine, strings.Replace(roaLine, "64500", "4294967296", 1)}, false},
	{"asn at range", []string{taLine, memberLine, strings.Replace(roaLine, "64500", "4294967295", 1)}, true},
	{"negative maxLength", []string{taLine, memberLine, strings.Replace(roaLine, `"maxLength":24`, `"maxLength":-1`, 1)}, false},
	{"exponent", []string{taLine, memberLine, strings.Replace(roaLine, `"maxLength":24`, `"maxLength":1e2`, 1)}, false},
	{"fraction", []string{taLine, memberLine, strings.Replace(roaLine, `"maxLength":24`, `"maxLength":24.0`, 1)}, false},
	{"leading zero", []string{taLine, memberLine, strings.Replace(roaLine, `"maxLength":24`, `"maxLength":024`, 1)}, false},
	{"huge maxLength", []string{taLine, memberLine, strings.Replace(roaLine, `"maxLength":24`, `"maxLength":99999999999999999999`, 1)}, false},
	{"number as string", []string{taLine, memberLine, strings.Replace(roaLine, "64500", `"64500"`, 1)}, false},
	{"nested object value", []string{taLine, strings.Replace(memberLine, `"member-1"`, `{"cn":"member-1"}`, 1)}, false},
	{"nested unknown member", []string{taLine, strings.Replace(memberLine, `"subject"`, `"extensions":{"ca":[true,{"x":1}]},"subject"`, 1), roaLine}, true},
	{"nested array element", []string{taLine, strings.Replace(memberLine, `["10.1.0.0/16"]`, `[["10.1.0.0/16"]]`, 1)}, false},
	{"empty resources", []string{taLine, strings.Replace(memberLine, `["10.1.0.0/16"]`, `[]`, 1)}, true},
	{"resources with a trailing comma", []string{taLine, strings.Replace(memberLine, `["10.1.0.0/16"]`, `["10.1.0.0/16",]`, 1)}, false},
	{"explicit empty aki and false trustAnchor", []string{strings.Replace(taLine, `"subject"`, `"aki":"","subject"`, 1), strings.Replace(memberLine, `}`, `,"trustAnchor":false}`, 1), roaLine}, true},
	{"trustAnchor as a number", []string{strings.Replace(taLine, `true`, `1`, 1)}, false},
	{"host bits", []string{taLine, strings.Replace(memberLine, "10.1.0.0/16", "10.1.2.3/16", 1), strings.Replace(roaLine, "10.1.2.0/24", "10.1.2.77/24", 1)}, true},
	{"IPv6 forms", []string{taLine, strings.Replace(memberLine, `"10.1.0.0/16"`, `"2001:DB8:0:0::/48","10.1.0.0/16"`, 1), strings.Replace(roaLine, `"10.1.2.0/24","maxLength":24`, `"2001:db8::1/64","maxLength":64`, 1)}, true},
	{"v4-mapped IPv6 resource", []string{strings.Replace(taLine, `"10.0.0.0/8"`, `"::ffff:10.0.0.0/104"`, 1)}, true},
	{"prefix length with a leading zero", []string{taLine, strings.Replace(memberLine, "/16", "/016", 1)}, false},
	{"prefix length out of range", []string{taLine, memberLine, strings.Replace(roaLine, "10.1.2.0/24", "10.1.2.0/33", 1)}, false},
	{"prefix without a length", []string{taLine, memberLine, strings.Replace(roaLine, "10.1.2.0/24", "10.1.2.0", 1)}, false},
	{"zoned prefix", []string{taLine, strings.Replace(memberLine, "10.1.0.0/16", "fe80::1%eth0/64", 1)}, false},
	{"mistyped member of the other kind", []string{strings.Replace(taLine, `"subject"`, `"asn":"x","maxLength":[],"subject"`, 1), memberLine, strings.Replace(roaLine, `}`, `,"resources":5,"trustAnchor":"yes"}`, 1)}, true},
	{"mistyped member of the other kind before one of its own", []string{taLine, strings.Replace(memberLine, `"ski":"AA:01"`, `"asn":"x","ski":5`, 1)}, false},
	{"mistyped member of the other kind and a mistyped kind", []string{taLine, `{"asn":"x","kind":5}`}, false},
	{"mistyped member and no kind", []string{taLine, `{"ski":"AA:01","aki":[]}`}, false},
	{"ROA before its certificate", []string{roaLine, memberLine, taLine}, true},
	{"ROA under an unknown certificate", []string{taLine, memberLine, strings.Replace(roaLine, "AA:01", "AA:02", 1)}, false},
	{"not an object", []string{`["cer"]`}, false},
	{"bare word", []string{`cer`}, false},
	{"unterminated string", []string{taLine, `{"kind":"cer","ski":"AA:01`}, false},
	{"unterminated object", []string{taLine, memberLine[:len(memberLine)-1]}, false},
	{"byte order mark", []string{"\xef\xbb\xbf" + taLine}, false},
}

func TestReadMatchesReferenceOnHostileInput(t *testing.T) {
	for _, tc := range hostileSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(strings.Join(tc.lines, "\n"))
			for _, in := range [][]byte{data, append(append([]byte(nil), data...), '\n')} {
				if repo := checkSameRead(t, in); (repo != nil) != tc.ok {
					t.Errorf("accepted = %v, table says %v\ninput:\n%s", repo != nil, tc.ok, in)
				}
			}
		})
	}
}

// FuzzReadRPKI holds Read to the reference on arbitrary bytes: never a
// panic, never a disagreement.
func FuzzReadRPKI(f *testing.F) {
	for _, tc := range hostileSnapshots {
		f.Add([]byte(strings.Join(tc.lines, "\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSameRead(t, data)
	})
}
