package rpki

import (
	"context"
	"net/netip"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// buildTestTree constructs:
//
//	TA(ARIN, 206.0.0.0/8, 2620::/23)
//	├── memberA (206.238.0.0/16)
//	│   └── childA1 (206.238.4.0/24)        [delegated RPKI]
//	└── memberB (206.1.0.0/16, 2620:0:10::/48)
func buildTestTree(t *testing.T) (*Repository, map[string]string) {
	t.Helper()
	r := NewRepository()
	ta := Certificate{
		SKI: "TA:ARIN", Subject: "arin-ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("206.0.0.0/8"), mp("2620::/23")},
	}
	memberA := Certificate{
		SKI: "SKI:A", AKI: "TA:ARIN", Subject: "member-a", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("206.238.0.0/16")},
	}
	childA1 := Certificate{
		SKI: "SKI:A1", AKI: "SKI:A", Subject: "child-a1", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("206.238.4.0/24")},
	}
	memberB := Certificate{
		SKI: "SKI:B", AKI: "TA:ARIN", Subject: "member-b", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("206.1.0.0/16"), mp("2620:0:10::/48")},
	}
	for _, c := range []Certificate{ta, memberA, childA1, memberB} {
		r.AddCert(c)
	}
	r.AddROA(ROA{Prefix: mp("206.1.0.0/16"), MaxLength: 24, ASN: 64500, CertSKI: "SKI:B"})
	r.AddROA(ROA{Prefix: mp("206.238.4.0/24"), MaxLength: 24, ASN: 64501, CertSKI: "SKI:A1"})
	if err := r.Build(); err != nil {
		t.Fatal(err)
	}
	return r, map[string]string{"ta": "TA:ARIN", "a": "SKI:A", "a1": "SKI:A1", "b": "SKI:B"}
}

func TestBuildValidTree(t *testing.T) {
	buildTestTree(t)
}

func TestBuildRejectsBadTrees(t *testing.T) {
	// Unknown issuer.
	r := NewRepository()
	r.AddCert(Certificate{SKI: "X", AKI: "MISSING", Subject: "s", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8")}})
	if err := r.Build(); err == nil {
		t.Error("unknown issuer accepted")
	}
	// Resource not covered by issuer.
	r = NewRepository()
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8")}})
	r.AddCert(Certificate{SKI: "C", AKI: "TA", Subject: "c", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("11.0.0.0/16")}})
	if err := r.Build(); err == nil {
		t.Error("overclaiming child accepted")
	}
	// Cycle.
	r = NewRepository()
	r.AddCert(Certificate{SKI: "P", AKI: "Q", Subject: "p", Registry: alloc.ARIN})
	r.AddCert(Certificate{SKI: "Q", AKI: "P", Subject: "q", Registry: alloc.ARIN})
	if err := r.Build(); err == nil {
		t.Error("certificate cycle accepted")
	}
	// Duplicate SKI.
	r = NewRepository()
	r.AddCert(Certificate{SKI: "D", Subject: "d1", Registry: alloc.ARIN})
	r.AddCert(Certificate{SKI: "D", Subject: "d2", Registry: alloc.ARIN})
	if err := r.Build(); err == nil {
		t.Error("duplicate SKI accepted")
	}
	// Empty SKI.
	r = NewRepository()
	r.AddCert(Certificate{Subject: "nameless", Registry: alloc.ARIN})
	if err := r.Build(); err == nil {
		t.Error("empty SKI accepted")
	}
	// ROA under unknown cert.
	r = NewRepository()
	r.AddROA(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, ASN: 1, CertSKI: "NOPE"})
	if err := r.Build(); err == nil {
		t.Error("orphan ROA accepted")
	}
	// ROA outside signing cert resources.
	r = NewRepository()
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8")}})
	r.AddROA(ROA{Prefix: mp("11.0.0.0/8"), MaxLength: 8, ASN: 1, CertSKI: "TA"})
	if err := r.Build(); err == nil {
		t.Error("overclaiming ROA accepted")
	}
	// Bad maxLength.
	r = NewRepository()
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8")}})
	r.AddROA(ROA{Prefix: mp("10.0.0.0/16"), MaxLength: 8, ASN: 1, CertSKI: "TA"})
	if err := r.Build(); err == nil {
		t.Error("maxLength < prefix length accepted")
	}
}

func TestChildMostRC(t *testing.T) {
	r, skis := buildTestTree(t)
	cases := []struct {
		prefix string
		want   string
	}{
		{"206.238.4.0/24", skis["a1"]},   // exactly the child cert
		{"206.238.4.128/25", skis["a1"]}, // inside the child cert
		{"206.238.9.0/24", skis["a"]},    // inside member A only
		{"206.1.5.0/24", skis["b"]},      // inside member B
		{"2620:0:10::/48", skis["b"]},    // v6 resource
		{"206.200.0.0/16", skis["ta"]},   // only the TA covers it
	}
	for _, c := range cases {
		got, ok := r.CertIndex().ChildMostRC(mp(c.prefix))
		if !ok {
			t.Errorf("ChildMostRC(%s): not found", c.prefix)
			continue
		}
		if got.SKI != c.want {
			t.Errorf("ChildMostRC(%s) = %s, want %s", c.prefix, got.SKI, c.want)
		}
	}
	if _, ok := r.CertIndex().ChildMostRC(mp("8.8.8.0/24")); ok {
		t.Error("uncovered prefix matched a certificate")
	}
	if !r.CertIndex().Covered(mp("206.238.4.0/24")) || r.CertIndex().Covered(mp("8.8.8.0/24")) {
		t.Error("Covered wrong")
	}
}

func TestValidate(t *testing.T) {
	r, _ := buildTestTree(t)
	cases := []struct {
		prefix string
		origin uint32
		want   ValidationState
	}{
		{"206.1.0.0/16", 64500, StateValid},
		{"206.1.0.0/24", 64500, StateValid},   // within maxLength 24
		{"206.1.0.0/25", 64500, StateInvalid}, // beyond maxLength
		{"206.1.0.0/16", 64999, StateInvalid}, // wrong origin
		{"206.200.0.0/16", 64500, StateNotFound},
		{"206.238.4.0/24", 64501, StateValid},
	}
	for _, c := range cases {
		if got := r.Validate(mp(c.prefix), c.origin); got != c.want {
			t.Errorf("Validate(%s, AS%d) = %s, want %s", c.prefix, c.origin, got, c.want)
		}
	}
	if !r.HasROA(mp("206.1.0.0/20")) {
		t.Error("HasROA missed covered prefix")
	}
	if r.HasROA(mp("206.200.0.0/16")) {
		t.Error("HasROA matched uncovered prefix")
	}
}

func TestValidationStateString(t *testing.T) {
	if StateValid.String() != "Valid" || StateInvalid.String() != "Invalid" || StateNotFound.String() != "NotFound" {
		t.Error("ValidationState.String wrong")
	}
}

func TestSKIOfDeterministicAndDistinct(t *testing.T) {
	a := SKIOf(alloc.ARIN, "member-a", []netip.Prefix{mp("10.0.0.0/8"), mp("11.0.0.0/8")})
	b := SKIOf(alloc.ARIN, "member-a", []netip.Prefix{mp("11.0.0.0/8"), mp("10.0.0.0/8")})
	if a != b {
		t.Error("SKIOf not order independent")
	}
	c := SKIOf(alloc.ARIN, "member-b", []netip.Prefix{mp("10.0.0.0/8")})
	if a == c {
		t.Error("distinct subjects collide")
	}
	if len(strings.Split(a, ":")) != 10 {
		t.Errorf("SKI form = %q", a)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r, _ := buildTestTree(t)
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Certs) != len(r.Certs) || len(back.ROAs) != len(r.ROAs) {
		t.Fatalf("roundtrip: %d certs %d roas", len(back.Certs), len(back.ROAs))
	}
	// Child-most queries agree after roundtrip.
	for _, q := range []string{"206.238.4.0/24", "206.1.5.0/24", "206.200.0.0/16"} {
		a, aok := r.CertIndex().ChildMostRC(mp(q))
		b, bok := back.CertIndex().ChildMostRC(mp(q))
		if aok != bok || (aok && a.SKI != b.SKI) {
			t.Errorf("ChildMostRC(%s) diverged after roundtrip", q)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json\n",
		`{"kind":"wat"}` + "\n",
		`{"kind":"cer","ski":"X","subject":"s","registry":"ARIN","resources":["banana"]}` + "\n",
		`{"kind":"roa","prefix":"banana","maxLength":24,"asn":1,"certSKI":"X"}` + "\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read accepted %q", in)
		}
	}
}

func TestWriteDirLoadDir(t *testing.T) {
	r, _ := buildTestTree(t)
	dir := t.TempDir()
	if err := r.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Certs) != len(r.Certs) {
		t.Errorf("certs = %d, want %d", len(back.Certs), len(r.Certs))
	}
	// Missing snapshot: empty repo, not an error.
	empty, err := LoadDir(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if empty.CertIndex().Covered(mp("10.0.0.0/8")) {
		t.Error("empty repo claims coverage")
	}
}

// Depth ties: two certs at the same depth covering the same prefix — more
// specific resource wins, then SKI order.
func TestChildMostRCTieBreak(t *testing.T) {
	r := NewRepository()
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("193.0.0.0/8")}})
	r.AddCert(Certificate{SKI: "M1", AKI: "TA", Subject: "m1", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("193.0.0.0/16")}})
	r.AddCert(Certificate{SKI: "M2", AKI: "TA", Subject: "m2", Registry: alloc.RIPE,
		Resources: []netip.Prefix{mp("193.0.10.0/24")}})
	if err := r.Build(); err != nil {
		t.Fatal(err)
	}
	got, ok := r.CertIndex().ChildMostRC(mp("193.0.10.0/25"))
	if !ok || got.SKI != "M2" {
		t.Errorf("tie-break = %v, want M2 (more specific resource)", got)
	}
}

func TestQueriesOnUnbuiltRepo(t *testing.T) {
	r := NewRepository()
	// Queries before Build must degrade, not panic.
	if _, ok := r.CertIndex().ChildMostRC(mp("10.0.0.0/8")); ok {
		t.Error("unbuilt repo matched a certificate")
	}
	if r.Validate(mp("10.0.0.0/8"), 1) != StateNotFound {
		t.Error("unbuilt repo validated")
	}
	if r.HasROA(mp("10.0.0.0/8")) {
		t.Error("unbuilt repo has ROAs")
	}
}

func TestCertBySKI(t *testing.T) {
	r, skis := buildTestTree(t)
	c, ok := r.CertBySKI(skis["a"])
	if !ok || c.Subject != "member-a" {
		t.Errorf("CertBySKI = %v,%v", c, ok)
	}
	if _, ok := r.CertBySKI("NOPE"); ok {
		t.Error("unknown SKI found")
	}
}

func TestSortObjectsDeterministic(t *testing.T) {
	r, _ := buildTestTree(t)
	r.SortObjects()
	for i := 1; i < len(r.Certs); i++ {
		a, b := r.Certs[i-1], r.Certs[i]
		if a.Registry == b.Registry && a.Subject > b.Subject {
			t.Fatal("certs not sorted by subject within registry")
		}
	}
	for i := 1; i < len(r.ROAs); i++ {
		if netx.Compare(r.ROAs[i-1].Prefix, r.ROAs[i].Prefix) > 0 {
			t.Fatal("ROAs not sorted")
		}
	}
}

// Trust anchors are excluded from child-most queries but still anchor
// containment validation.
func TestTrustAnchorExcludedFromQueries(t *testing.T) {
	r := NewRepository()
	r.AddCert(Certificate{SKI: "TA", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{mp("10.0.0.0/8")}, TrustAnchor: true})
	if err := r.Build(); err != nil {
		t.Fatal(err)
	}
	if r.CertIndex().Covered(mp("10.1.0.0/16")) {
		t.Error("TA-only coverage counted")
	}
}
