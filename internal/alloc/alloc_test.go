package alloc

import (
	"strings"
	"testing"
)

func TestCountIs22(t *testing.T) {
	if got := Count(); got != 22 {
		t.Errorf("Count() = %d, want 22 (paper: 22 allocation types across 5 RIRs)", got)
	}
}

func TestEveryTypeHasExactlyOneLevel(t *testing.T) {
	for _, r := range RIRs {
		for _, ty := range All(r) {
			if ty.Level != DirectOwner && ty.Level != DelegatedCustomer {
				t.Errorf("%s has invalid level %v", ty, ty.Level)
			}
		}
	}
}

// Paper taxonomy property: R3 (RPKI issuance) is only ever granted
// together with R1 (provider independence) — only direct delegations can
// issue certificates, and direct delegations are always provider
// independent.
func TestR3ImpliesR1(t *testing.T) {
	for _, r := range RIRs {
		for _, ty := range All(r) {
			if ty.Rights.IssueRPKI && !ty.Rights.ProviderIndependent {
				t.Errorf("%s grants R3 without R1", ty)
			}
		}
	}
}

// Every Direct Owner type grants provider independence, and every
// Delegated Customer type lacks it (Tables 8-12: the R1 column exactly
// separates the grey rows from the rest).
func TestR1SeparatesOwnershipLevels(t *testing.T) {
	for _, r := range RIRs {
		for _, ty := range All(r) {
			if ty.DirectOwner() != ty.Rights.ProviderIndependent {
				t.Errorf("%s: DirectOwner=%v but R1=%v", ty, ty.DirectOwner(), ty.Rights.ProviderIndependent)
			}
		}
	}
}

// Direct Owner types that are not legacy-modified always grant R3.
func TestDirectOwnerGrantsR3UnlessLegacyModified(t *testing.T) {
	for _, r := range RIRs {
		for _, ty := range All(r) {
			if ty.DirectOwner() && !ty.Modified && !ty.Rights.IssueRPKI {
				t.Errorf("%s is a non-modified Direct Owner type without R3", ty)
			}
			if ty.Modified && ty.Rights.IssueRPKI {
				t.Errorf("%s is modified (legacy, no agreement) but grants R3", ty)
			}
		}
	}
}

// Depth is consistent with ownership level: DO types at depth 0, DC types
// deeper; intermediate DC types (R2) shallower than terminal ones.
func TestDepthConsistency(t *testing.T) {
	for _, r := range RIRs {
		for _, ty := range All(r) {
			if ty.DirectOwner() && ty.Depth != 0 {
				t.Errorf("%s: Direct Owner with depth %d", ty, ty.Depth)
			}
			if !ty.DirectOwner() && ty.Depth == 0 {
				t.Errorf("%s: Delegated Customer with depth 0", ty)
			}
			if !ty.DirectOwner() {
				if ty.Rights.SubDelegate && ty.Depth != 1 {
					t.Errorf("%s: intermediate DC (R2) should be depth 1, got %d", ty, ty.Depth)
				}
				if !ty.Rights.SubDelegate && ty.Depth != 2 {
					t.Errorf("%s: terminal DC should be depth 2, got %d", ty, ty.Depth)
				}
			}
		}
	}
}

// Table 1 spot checks: the DO/DC split per RIR.
func TestTable1Mapping(t *testing.T) {
	cases := []struct {
		r       Registry
		keyword string
		f       Family
		wantDO  bool
	}{
		{ARIN, "Allocation", IPv4, true},
		{ARIN, "Reallocation", IPv4, false},
		{ARIN, "Reassignment", IPv4, false},
		{LACNIC, "ALLOCATED", IPv4, true},
		{LACNIC, "ASSIGNED", IPv4, true},
		{LACNIC, "REALLOCATED", IPv4, false},
		{LACNIC, "REASSIGNED", IPv4, false},
		{RIPE, "ALLOCATED PA", IPv4, true},
		{RIPE, "ASSIGNED PI", IPv4, true},
		{RIPE, "LEGACY", IPv4, true},
		{RIPE, "ALLOCATED-BY-RIR", IPv6, true},
		{RIPE, "ASSIGNED ANYCAST", IPv4, true},
		{RIPE, "ALLOCATED-ASSIGNED PA", IPv4, true},
		{RIPE, "ASSIGNED PA", IPv4, false},
		{RIPE, "ASSIGNED", IPv6, false},
		{RIPE, "SUB-ALLOCATED PA", IPv4, false},
		{RIPE, "ALLOCATED-BY-LIR", IPv6, false},
		{RIPE, "AGGREGATED-BY-LIR", IPv6, false},
		{AFRINIC, "ALLOCATED PA", IPv4, true},
		{AFRINIC, "ASSIGNED PI", IPv4, true},
		{AFRINIC, "ALLOCATED-BY-RIR", IPv6, true},
		{AFRINIC, "ASSIGNED ANYCAST", IPv4, true},
		{AFRINIC, "ASSIGNED PA", IPv4, false},
		{AFRINIC, "SUB-ALLOCATED PA", IPv4, false},
		{APNIC, "ALLOCATED PORTABLE", IPv4, true},
		{APNIC, "ASSIGNED PORTABLE", IPv4, true},
		{APNIC, "ALLOCATED NON-PORTABLE", IPv4, false},
		{APNIC, "ASSIGNED NON-PORTABLE", IPv4, false},
	}
	for _, c := range cases {
		ty, err := Lookup(c.r, c.keyword, c.f)
		if err != nil {
			t.Errorf("Lookup(%s, %q, %s): %v", c.r, c.keyword, c.f, err)
			continue
		}
		if ty.DirectOwner() != c.wantDO {
			t.Errorf("Lookup(%s, %q): DirectOwner = %v, want %v", c.r, c.keyword, ty.DirectOwner(), c.wantDO)
		}
	}
}

func TestLookupNormalization(t *testing.T) {
	for _, kw := range []string{"allocated pa", "ALLOCATED PA", "Allocated-PA", " allocated  pa ", "allocated_pa"} {
		ty, err := Lookup(RIPE, kw, IPv4)
		if err != nil {
			t.Errorf("Lookup(RIPE, %q): %v", kw, err)
			continue
		}
		if ty.Name != "Allocated PA" {
			t.Errorf("Lookup(RIPE, %q) = %s", kw, ty.Name)
		}
	}
}

// TestNormalize pins the one normaliser against the strings-package
// formula both alloc and whois used to spell out per call, on ASCII and
// non-ASCII input alike, and pins Lookup's probe at zero allocations.
func TestNormalize(t *testing.T) {
	ref := func(s string) string {
		s = strings.NewReplacer("_", " ", "-", " ").Replace(strings.ToLower(strings.TrimSpace(s)))
		return strings.Join(strings.Fields(s), " ")
	}
	for _, s := range []string{
		"", " ", "-", "_-_", "Allocation", "ALLOCATED-BY-RIR", " sub_allocated\t PA\n", "Re-Allocation",
		"a--b", "-lead", "trail-", "ÀLLOCATED\u00a0PÄ", "İstanbul", "bad\xffbyte", "allocated\u2003pa",
	} {
		if got, want := Normalize(s), ref(s); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Lookup(RIPE, "SUB-ALLOCATED PA", IPv4); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %v times per call, want 0", n)
	}
}

func TestLookupFamilyRestrictions(t *testing.T) {
	if _, err := Lookup(RIPE, "LEGACY", IPv6); err == nil {
		t.Error("RIPE LEGACY accepted for IPv6 (IPv4-only type)")
	}
	if _, err := Lookup(RIPE, "ALLOCATED-BY-RIR", IPv4); err == nil {
		t.Error("RIPE ALLOCATED-BY-RIR accepted for IPv4 (IPv6-only type)")
	}
	if _, err := Lookup(AFRINIC, "ALLOCATED-BY-RIR", IPv4); err == nil {
		t.Error("AFRINIC ALLOCATED-BY-RIR accepted for IPv4")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup(ARIN, "TOTALLY-MADE-UP", IPv4); err == nil {
		t.Error("unknown keyword accepted")
	}
	if _, err := Lookup(Registry("NOPE"), "Allocation", IPv4); err == nil {
		t.Error("unknown registry accepted")
	}
}

// NIR delegations resolve through the parent RIR vocabulary with the same
// rights (§5.1: "direct delegations from NIRs have the same rights as
// those from RIRs").
func TestNIRLookup(t *testing.T) {
	for _, nir := range []Registry{JPNIC, TWNIC, KRNIC, CNNIC, IDNIC, IRINN, VNNIC} {
		ty, err := Lookup(nir, "ALLOCATED PORTABLE", IPv4)
		if err != nil {
			t.Errorf("Lookup(%s): %v", nir, err)
			continue
		}
		if !ty.DirectOwner() || !ty.Rights.IssueRPKI {
			t.Errorf("%s direct delegation should be Direct Owner with R3, got %+v", nir, ty)
		}
	}
	for _, nir := range []Registry{NICBR, NICMX} {
		ty, err := Lookup(nir, "ALLOCATED", IPv4)
		if err != nil {
			t.Errorf("Lookup(%s): %v", nir, err)
			continue
		}
		if ty.Registry != LACNIC {
			t.Errorf("%s resolves to registry %s, want LACNIC", nir, ty.Registry)
		}
	}
}

func TestParent(t *testing.T) {
	cases := map[Registry]Registry{
		ARIN: ARIN, RIPE: RIPE, APNIC: APNIC,
		JPNIC: APNIC, TWNIC: APNIC, KRNIC: APNIC, CNNIC: APNIC,
		IDNIC: APNIC, IRINN: APNIC, VNNIC: APNIC,
		NICBR: LACNIC, NICMX: LACNIC,
	}
	for r, want := range cases {
		if got := Parent(r); got != want {
			t.Errorf("Parent(%s) = %s, want %s", r, got, want)
		}
	}
	if IsNIR(ARIN) || !IsNIR(JPNIC) {
		t.Error("IsNIR misclassifies")
	}
}

// Legacy modified types: ARIN Allocation-Legacy and RIPE
// Legacy-Not-Sponsored are Direct Owner but cannot issue RPKI certificates.
func TestModifiedLegacyTypes(t *testing.T) {
	al, err := Lookup(ARIN, "Allocation-Legacy", IPv4)
	if err != nil {
		t.Fatal(err)
	}
	if !al.DirectOwner() || al.Rights.IssueRPKI || !al.Modified {
		t.Errorf("ARIN Allocation-Legacy = %+v", al)
	}
	lns, err := Lookup(RIPE, "Legacy-Not-Sponsored", IPv4)
	if err != nil {
		t.Fatal(err)
	}
	if !lns.DirectOwner() || lns.Rights.IssueRPKI || !lns.Modified {
		t.Errorf("RIPE Legacy-Not-Sponsored = %+v", lns)
	}
}

func TestAllPerRIRCounts(t *testing.T) {
	// Counts including the two modified types (ARIN 4, RIPE 12).
	want := map[Registry]int{ARIN: 4, LACNIC: 4, APNIC: 4, RIPE: 12, AFRINIC: 6}
	for r, n := range want {
		if got := len(All(r)); got != n {
			t.Errorf("len(All(%s)) = %d, want %d", r, got, n)
		}
	}
	// NIR queries see the parent's table.
	if len(All(JPNIC)) != 4 {
		t.Errorf("len(All(JPNIC)) = %d, want 4", len(All(JPNIC)))
	}
}

func TestOwnershipString(t *testing.T) {
	if DirectOwner.String() != "Direct Owner" || DelegatedCustomer.String() != "Delegated Customer" {
		t.Error("Ownership.String wrong")
	}
	if !strings.Contains(Type{Registry: ARIN, Name: "Allocation"}.String(), "ARIN") {
		t.Error("Type.String missing registry")
	}
	if IPv4.String() != "IPv4" || IPv6.String() != "IPv6" {
		t.Error("Family.String wrong")
	}
}

// Every alias keyword resolves to the same Type as its canonical name.
func TestAliasesResolveLikeCanonical(t *testing.T) {
	cases := []struct {
		reg              Registry
		alias, canonical string
		f                Family
	}{
		{ARIN, "Direct Allocation", "Allocation", IPv4},
		{ARIN, "Reallocation", "Re-Allocation", IPv4},
		{ARIN, "Reassigned", "Reassignment", IPv4},
		{RIPE, "ALLOCATED PA", "Allocated PA", IPv4},
		{APNIC, "ALLOCATED PORTABLE", "Allocated Portable", IPv4},
		{LACNIC, "REASSIGNED", "Reassigned", IPv4},
	}
	for _, c := range cases {
		a, err1 := Lookup(c.reg, c.alias, c.f)
		b, err2 := Lookup(c.reg, c.canonical, c.f)
		if err1 != nil || err2 != nil {
			t.Errorf("%s/%s: %v %v", c.reg, c.alias, err1, err2)
			continue
		}
		if a != b {
			t.Errorf("%s: alias %q != canonical %q", c.reg, c.alias, c.canonical)
		}
	}
}
