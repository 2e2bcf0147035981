package whois

import (
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

func FuzzParseRPSL(f *testing.F) {
	f.Add(ripeSample)
	f.Add(apnicSample)
	f.Add("inetnum: 10.0.0.0 - 10.0.0.255\nstatus: ALLOCATED PA\n")
	f.Add("")
	f.Add("%% comment only\n")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ParseRPSL(strings.NewReader(data), alloc.RIPE)
		if err != nil {
			return
		}
		// Whatever parsed must flatten as the reference does and
		// re-serialize without panicking.
		checkFlatten(t, db)
		var sb strings.Builder
		_ = WriteRPSL(&sb, db, alloc.RIPE)
	})
}

func FuzzParseARIN(f *testing.F) {
	f.Add(arinSample)
	f.Add("NetRange: 10.0.0.0 - 10.0.0.255\nNetType: Allocation\nOrgName: X\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ParseARIN(strings.NewReader(data))
		if err != nil {
			return
		}
		checkFlatten(t, db)
		var sb strings.Builder
		_ = WriteARIN(&sb, db)
	})
}

func FuzzParseLACNIC(f *testing.F) {
	f.Add(lacnicSample)
	f.Add("inetnum: 200.160.0.0/20\nstatus: allocated\nowner: X\n")
	f.Add("inet6num: 2801:80::/32\nstatus: assigned\n")
	f.Add("")
	f.Add("% comment only\n")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ParseLACNIC(strings.NewReader(data), alloc.LACNIC)
		if err != nil {
			return
		}
		checkFlatten(t, db)
		var sb strings.Builder
		_ = WriteLACNIC(&sb, db)
	})
}

func FuzzParsePrefixList(f *testing.F) {
	f.Add("10.0.0.0/8\n2001:db8::/32\n")
	f.Add("# comment\n\n192.0.2.0/24\n")
	f.Add("not-a-prefix\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		ps, err := ParsePrefixList(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range ps {
			if !p.IsValid() {
				t.Fatalf("ParsePrefixList returned invalid prefix from %q", data)
			}
			if p != p.Masked() {
				t.Fatalf("ParsePrefixList returned non-canonical %s from %q", p, data)
			}
		}
		var sb strings.Builder
		if err := WritePrefixList(&sb, "", ps); err != nil {
			t.Fatalf("WritePrefixList on parsed output: %v", err)
		}
	})
}

func FuzzParseBlockSpec(f *testing.F) {
	for _, s := range []string{"10.0.0.0/8", "10.0.0.0 - 10.0.3.255", "2001:db8::/32", "x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkBytesReaders(t, data)
		ps, err := parseBlockSpec(data)
		if err != nil {
			return
		}
		for _, p := range ps {
			if !p.IsValid() {
				t.Fatalf("parseBlockSpec(%q) returned invalid prefix", data)
			}
			if p != p.Masked() {
				t.Fatalf("parseBlockSpec(%q) returned non-canonical %s", data, p)
			}
		}
	})
}
