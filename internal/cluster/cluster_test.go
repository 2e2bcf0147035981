package cluster

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/prefix2org/prefix2org/internal/netx"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// clusterOf returns the final cluster that lists owner among its names.
func clusterOf(res *Result, owner string) (*Cluster, bool) {
	for _, c := range res.Final {
		if slices.Contains(c.OwnerNames, owner) {
			return c, true
		}
	}
	return nil, false
}

// Table 3 scenario: four Verizon prefixes under three exact names must
// merge into one cluster; the two Fastlys must stay apart.
func table3Infos() []PrefixInfo {
	return []PrefixInfo{
		// P1-P3 share RPKI cert 0E:65:A4, different ASN clusters.
		{mp("210.80.198.0/24"), "verizon japan ltd", "verizon", "0E:65:A4", "18692"},
		{mp("2404:e8:100::/40"), "verizon asia pte ltd", "verizon", "0E:65:A4", "701"},
		{mp("203.193.92.0/24"), "verizon hong kong ltd", "verizon", "0E:65:A4", "395753"},
		// P4 shares the ASN cluster with P3 but a different cert.
		{mp("65.196.14.0/24"), "verizon business", "verizon", "29:92:C2", "395753"},
		// P5, P6: Fastly Inc (same ASN cluster, different certs).
		{mp("2a04:4e40:8440::/48"), "fastly, inc.", "fastly", "8E:AD:ED", "54113"},
		{mp("172.111.123.0/24"), "fastly, inc.", "fastly", "0F:DD:01", "54113"},
		// P7: Fastly Network Solution — same base name, disjoint cert+ASN.
		{mp("103.186.154.0/24"), "fastly network solution", "fastly", "16:7C:3B", "63739"},
	}
}

func TestTable3Scenario(t *testing.T) {
	res := Build(table3Infos())
	vz, ok := clusterOf(res, "verizon business")
	if !ok {
		t.Fatal("verizon business not clustered")
	}
	for _, owner := range []string{"verizon japan ltd", "verizon asia pte ltd", "verizon hong kong ltd"} {
		c, ok := clusterOf(res, owner)
		if !ok || c != vz {
			t.Errorf("%s not merged into the Verizon cluster", owner)
		}
	}
	if len(vz.OwnerNames) != 4 || !vz.MultiName() {
		t.Errorf("verizon cluster owners = %v", vz.OwnerNames)
	}
	if len(vz.Prefixes) != 4 {
		t.Errorf("verizon cluster prefixes = %v", vz.Prefixes)
	}
	f1, _ := clusterOf(res, "fastly, inc.")
	f2, _ := clusterOf(res, "fastly network solution")
	if f1 == nil || f2 == nil || f1 == f2 {
		t.Error("the two Fastlys merged despite disjoint cert and ASN clusters")
	}
	if f1.MultiName() || f2.MultiName() {
		t.Error("single-name Fastly clusters reported multi-name")
	}
	if len(res.Final) != 3 {
		t.Errorf("final clusters = %d, want 3", len(res.Final))
	}
	if res.WCount != 6 {
		t.Errorf("W count = %d, want 6 exact names", res.WCount)
	}
}

// Result.Of parallels the input: each info's own final cluster, by
// position rather than by prefix.
func TestClusterOfInfo(t *testing.T) {
	infos := table3Infos()
	res := Build(infos)
	if len(res.Of) != len(infos) {
		t.Fatalf("len(Of) = %d, want %d", len(res.Of), len(infos))
	}
	for i, in := range infos {
		want, _ := clusterOf(res, in.OwnerName)
		if res.Of[i] == nil || res.Of[i] != want {
			t.Errorf("Of[%d] (%s) = %v, want the cluster of %q", i, in.Prefix, res.Of[i], in.OwnerName)
		}
	}
	if c := res.Of[3]; c.BaseName != "verizon" {
		t.Errorf("Of[3] = %+v, want the verizon cluster", c)
	}
}

// Same base name alone must NOT merge (no shared cert, no shared ASN).
func TestBaseNameAloneInsufficient(t *testing.T) {
	res := Build([]PrefixInfo{
		{mp("10.0.0.0/16"), "telefonica de espana", "telefonica", "C1", "100"},
		{mp("11.0.0.0/16"), "telefonica celular de bolivia", "telefonica", "C2", "200"},
	})
	if len(res.Final) != 2 {
		t.Errorf("unrelated same-base-name orgs merged: %+v", res.Final)
	}
}

// Shared cert with different base names must NOT merge (RIPE legacy
// shared certificate, sponsoring-org certs).
func TestSharedCertDifferentBaseNamesNotMerged(t *testing.T) {
	res := Build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme gmbh", "acme", "LEGACY-CERT", "100"},
		{mp("11.0.0.0/16"), "zenith sa", "zenith", "LEGACY-CERT", "200"},
	})
	if len(res.Final) != 2 {
		t.Errorf("different base names merged through shared legacy cert: %+v", res.Final)
	}
}

func TestTransitiveMergeThroughChain(t *testing.T) {
	// A~B via cert, B~C via ASN cluster: all three merge.
	res := Build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme east", "acme", "CERT1", "AS1"},
		{mp("11.0.0.0/16"), "acme west", "acme", "CERT1", "AS2"},
		{mp("12.0.0.0/16"), "acme west", "acme", "CERT2", "AS3"},
		{mp("13.0.0.0/16"), "acme north", "acme", "CERT2", "AS4"},
	})
	if len(res.Final) != 1 {
		t.Fatalf("final = %d clusters, want 1", len(res.Final))
	}
	if got := res.Final[0].OwnerNames; len(got) != 3 {
		t.Errorf("owners = %v", got)
	}
}

func TestMissingSignalsHandled(t *testing.T) {
	res := Build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme east", "acme", "", ""}, // no cert, no ASN
		{mp("11.0.0.0/16"), "acme west", "acme", "", ""},
		{Prefix: mp("12.0.0.0/16")}, // nameless: ignored
	})
	if len(res.Final) != 2 {
		t.Errorf("signal-less rows should stay separate: %+v", res.Final)
	}
	if res.Of[2] != nil {
		t.Error("nameless prefix got a cluster")
	}
}

func TestClusterIDStableAndDistinct(t *testing.T) {
	a := Build(table3Infos())
	b := Build(table3Infos())
	if len(a.Final) != len(b.Final) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a.Final {
		if a.Final[i].ID != b.Final[i].ID {
			t.Errorf("cluster ID unstable: %s vs %s", a.Final[i].ID, b.Final[i].ID)
		}
	}
	seen := map[string]bool{}
	for _, c := range a.Final {
		if seen[c.ID] {
			t.Errorf("duplicate cluster ID %s", c.ID)
		}
		seen[c.ID] = true
	}
	// The two Fastlys share a base name but must get distinct IDs.
	f1, _ := clusterOf(a, "fastly, inc.")
	f2, _ := clusterOf(a, "fastly network solution")
	if f1.ID == f2.ID {
		t.Error("distinct Fastly clusters share an ID")
	}
}

func TestGroupCounts(t *testing.T) {
	res := Build(table3Infos())
	// R groups: (verizon,0E:65:A4), (verizon,29:92:C2), (fastly,8E:AD:ED),
	// (fastly,0F:DD:01), (fastly,16:7C:3B) = 5.
	if res.RGroups != 5 {
		t.Errorf("RGroups = %d, want 5", res.RGroups)
	}
	// A groups: (verizon,18692), (verizon,701), (verizon,395753),
	// (fastly,54113), (fastly,63739) = 5.
	if res.AGroups != 5 {
		t.Errorf("AGroups = %d, want 5", res.AGroups)
	}
	// Multi-name groups: R(verizon,0E:65:A4) spans 3 names;
	// A(verizon,395753) spans 2 names.
	if res.RMultiName != 1 || res.AMultiName != 1 {
		t.Errorf("multi-name groups = R%d A%d, want 1/1", res.RMultiName, res.AMultiName)
	}
}

// Property: the merge equals brute-force connected components of the
// owner graph where edges connect owners co-appearing in an R or A group.
func TestMergeEqualsBruteForceComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		nOwners := 2 + rng.Intn(20)
		baseCount := 1 + rng.Intn(4)
		var infos []PrefixInfo
		ownerBase := map[string]string{}
		for i := 0; i < nOwners; i++ {
			base := fmt.Sprintf("base%d", rng.Intn(baseCount))
			owner := fmt.Sprintf("%s owner%d", base, i)
			ownerBase[owner] = base
			nPrefixes := 1 + rng.Intn(3)
			for j := 0; j < nPrefixes; j++ {
				p, _ := netx.NthSubprefix(mp("10.0.0.0/8"), 24, i*16+j)
				cert := ""
				if rng.Intn(3) > 0 {
					cert = fmt.Sprintf("CERT%d", rng.Intn(6))
				}
				asn := ""
				if rng.Intn(3) > 0 {
					asn = fmt.Sprintf("AS%d", rng.Intn(6))
				}
				infos = append(infos, PrefixInfo{p, owner, base, cert, asn})
			}
		}
		res := Build(infos)

		// Brute force: adjacency between owners sharing base+cert or
		// base+ASN group.
		type gk struct{ base, id string }
		groups := map[gk]map[string]bool{}
		for _, in := range infos {
			if in.CertSKI != "" {
				k := gk{in.BaseName, "R" + in.CertSKI}
				if groups[k] == nil {
					groups[k] = map[string]bool{}
				}
				groups[k][in.OwnerName] = true
			}
			if in.ASNCluster != "" {
				k := gk{in.BaseName, "A" + in.ASNCluster}
				if groups[k] == nil {
					groups[k] = map[string]bool{}
				}
				groups[k][in.OwnerName] = true
			}
		}
		adj := map[string][]string{}
		for _, members := range groups {
			var list []string
			for o := range members {
				list = append(list, o)
			}
			for i := 1; i < len(list); i++ {
				adj[list[0]] = append(adj[list[0]], list[i])
				adj[list[i]] = append(adj[list[i]], list[0])
			}
		}
		comp := map[string]int{}
		next := 0
		for owner := range ownerBase {
			if _, done := comp[owner]; done {
				continue
			}
			next++
			stack := []string{owner}
			comp[owner] = next
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, nb := range adj[cur] {
					if _, done := comp[nb]; !done {
						comp[nb] = next
						stack = append(stack, nb)
					}
				}
			}
		}
		for a := range ownerBase {
			for b := range ownerBase {
				ca, _ := clusterOf(res, a)
				cb, _ := clusterOf(res, b)
				if (ca == cb) != (comp[a] == comp[b]) {
					t.Fatalf("trial %d: owners %q,%q: cluster match %v, brute force %v",
						trial, a, b, ca == cb, comp[a] == comp[b])
				}
			}
		}
	}
}

// Order independence: shuffling the input rows yields identical clusters.
func TestOrderIndependence(t *testing.T) {
	infos := table3Infos()
	res1 := Build(infos)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		shuffled := make([]PrefixInfo, len(infos))
		copy(shuffled, infos)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		res2 := Build(shuffled)
		if len(res1.Final) != len(res2.Final) {
			t.Fatal("cluster count depends on input order")
		}
		for i := range res1.Final {
			if res1.Final[i].ID != res2.Final[i].ID {
				t.Fatalf("cluster IDs depend on input order: %s vs %s", res1.Final[i].ID, res2.Final[i].ID)
			}
		}
	}
}

func TestDuplicatePrefixRowsDeduped(t *testing.T) {
	res := Build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme", "acme", "C1", "A1"},
		{mp("10.0.0.0/16"), "acme", "acme", "C1", "A1"},
	})
	if len(res.Final) != 1 || len(res.Final[0].Prefixes) != 1 {
		t.Errorf("duplicate rows not deduped: %+v", res.Final)
	}
}
