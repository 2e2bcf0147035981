package cluster

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/prefix2org/prefix2org/internal/netx"
)

func mp(s string) netip.Prefix { return netx.MustParse(s) }

// PrefixInfo is one routed prefix's merge inputs as the tests state
// them: strings, which a world interns to the IDs Merge runs on.
type PrefixInfo struct {
	Prefix                                   netip.Prefix
	OwnerName, BaseName, CertSKI, ASNCluster string
}

// world interns owner names and keys to IDs that stay put from one
// merge to the next, as the pipeline's retained columns do.
type world struct {
	owners, keys map[string]int32
	names        []string
}

func newWorld() *world {
	return &world{owners: map[string]int32{}, keys: map[string]int32{}}
}

func (w *world) owner(name string) int32 {
	if name == "" {
		return -1
	}
	id, ok := w.owners[name]
	if !ok {
		id = int32(len(w.names))
		w.owners[name] = id
		w.names = append(w.names, name)
	}
	return id
}

func (w *world) key(k string) int32 {
	if k == "" {
		return -1
	}
	id, ok := w.keys[k]
	if !ok {
		id = int32(len(w.keys))
		w.keys[k] = id
	}
	return id
}

// merge runs Merge over infos against prev, with touched naming the
// owners whose rows or base name changed since prev.
func (w *world) merge(prev *Result, infos []PrefixInfo, touched map[string]bool) *built {
	rows := make([]Row, len(infos))
	for i, in := range infos {
		rows[i] = Row{w.owner(in.OwnerName), w.key(in.CertSKI), w.key(in.ASNCluster)}
	}
	own := Owners{Names: w.names, Base: make([]int32, len(w.names)), Touched: make([]bool, len(w.names))}
	baseID := map[string]int32{}
	for id := range own.Base {
		own.Base[id] = -1
	}
	for _, in := range infos {
		id := w.owner(in.OwnerName)
		if id < 0 || in.BaseName == "" {
			continue
		}
		b, ok := baseID[in.BaseName]
		if !ok {
			b = int32(len(own.BaseNames))
			baseID[in.BaseName] = b
			own.BaseNames = append(own.BaseNames, in.BaseName)
		}
		own.Base[id] = b
	}
	for name := range touched {
		if id, ok := w.owners[name]; ok {
			own.Touched[id] = true
		}
	}
	res := Merge(prev, own, rows, len(w.keys), func(i int) netip.Prefix { return infos[i].Prefix })
	b := &built{Result: res, Of: make([]*Cluster, len(infos))}
	for i, r := range rows {
		b.Of[i] = res.Of(r.Owner)
	}
	return b
}

// built is a merge with each info's final cluster beside it.
type built struct {
	*Result
	Of []*Cluster
}

// build merges infos from nothing.
func build(infos []PrefixInfo) *built { return newWorld().merge(nil, infos, nil) }

// clusterOf returns the final cluster that lists owner among its names.
func clusterOf(res *built, owner string) (*Cluster, bool) {
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
	res := build(table3Infos())
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
	res := build(infos)
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
	res := build([]PrefixInfo{
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
	res := build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme gmbh", "acme", "LEGACY-CERT", "100"},
		{mp("11.0.0.0/16"), "zenith sa", "zenith", "LEGACY-CERT", "200"},
	})
	if len(res.Final) != 2 {
		t.Errorf("different base names merged through shared legacy cert: %+v", res.Final)
	}
}

func TestTransitiveMergeThroughChain(t *testing.T) {
	// A~B via cert, B~C via ASN cluster: all three merge.
	res := build([]PrefixInfo{
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
	res := build([]PrefixInfo{
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
	a := build(table3Infos())
	b := build(table3Infos())
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
	res := build(table3Infos())
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

// randomWorld draws a small world: up to 21 owners over up to four base
// names, one to three prefixes each, a certificate and an ASN cluster
// each on two rows in three.
func randomWorld(rng *rand.Rand) []PrefixInfo {
	nOwners := 2 + rng.Intn(20)
	baseCount := 1 + rng.Intn(4)
	var infos []PrefixInfo
	for i := 0; i < nOwners; i++ {
		base := fmt.Sprintf("base%d", rng.Intn(baseCount))
		owner := fmt.Sprintf("%s owner%d", base, i)
		for j := 0; j < 1+rng.Intn(3); j++ {
			p, _ := netx.NthSubprefix(mp("10.0.0.0/8"), 24, i*16+j)
			infos = append(infos, PrefixInfo{p, owner, base, randomKey(rng, "CERT"), randomKey(rng, "AS")})
		}
	}
	return infos
}

func randomKey(rng *rand.Rand, kind string) string {
	if rng.Intn(3) == 0 {
		return ""
	}
	return fmt.Sprintf("%s%d", kind, rng.Intn(6))
}

// reference is §5.3 read literally: owners are adjacent when they share
// a base name and a certificate, or a base name and an ASN cluster; the
// final clusters are the connected components of that graph, found by
// search, each holding its owners' prefixes under their base name. It
// returns the clusters sorted by ID and the four group counts.
func reference(infos []PrefixInfo) (final []Cluster, rGroups, aGroups, rMulti, aMulti int) {
	type gk struct{ base, key string }
	groups := map[gk]map[string]bool{}
	add := func(k gk, owner string) {
		if groups[k] == nil {
			groups[k] = map[string]bool{}
		}
		groups[k][owner] = true
	}
	for _, in := range infos {
		if in.OwnerName == "" || in.BaseName == "" {
			continue
		}
		if in.CertSKI != "" {
			add(gk{in.BaseName, "R" + in.CertSKI}, in.OwnerName)
		}
		if in.ASNCluster != "" {
			add(gk{in.BaseName, "A" + in.ASNCluster}, in.OwnerName)
		}
	}
	adj := map[string][]string{}
	for k, members := range groups {
		multi := len(members) > 1
		if k.key[0] == 'R' {
			rGroups++
			rMulti += b2i(multi)
		} else {
			aGroups++
			aMulti += b2i(multi)
		}
		for a := range members {
			for b := range members {
				if a != b {
					adj[a] = append(adj[a], b)
				}
			}
		}
	}
	base, prefixes := map[string]string{}, map[string][]netip.Prefix{}
	for _, in := range infos {
		if in.OwnerName != "" {
			base[in.OwnerName] = in.BaseName
			prefixes[in.OwnerName] = append(prefixes[in.OwnerName], in.Prefix)
		}
	}
	seen := map[string]bool{}
	for owner := range base {
		if seen[owner] {
			continue
		}
		seen[owner] = true
		c := Cluster{BaseName: base[owner]}
		for queue := []string{owner}; len(queue) > 0; queue = queue[1:] {
			cur := queue[0]
			c.OwnerNames = append(c.OwnerNames, cur)
			c.Prefixes = append(c.Prefixes, prefixes[cur]...)
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		slices.Sort(c.OwnerNames)
		netx.Sort(c.Prefixes)
		c.ID = clusterID(sha256.New(), c.BaseName, c.OwnerNames)
		final = append(final, c)
	}
	slices.SortFunc(final, func(a, b Cluster) int { return byID(&a, &b) })
	return final, rGroups, aGroups, rMulti, aMulti
}

// checkReference holds a merge over infos to the reference: every final
// cluster by value, every info's cluster, and the group counts.
func checkReference(t *testing.T, label string, infos []PrefixInfo, res *built) {
	t.Helper()
	final, rg, ag, rm, am := reference(infos)
	if len(res.Final) != len(final) {
		t.Fatalf("%s: %d final clusters, reference %d", label, len(res.Final), len(final))
	}
	for i := range final {
		if !reflect.DeepEqual(*res.Final[i], final[i]) {
			t.Fatalf("%s: final cluster %d = %+v, reference %+v", label, i, *res.Final[i], final[i])
		}
	}
	for i, in := range infos {
		if c := res.Of[i]; c == nil || !slices.Contains(c.OwnerNames, in.OwnerName) {
			t.Fatalf("%s: info %d (%s) is in cluster %v, not its owner's", label, i, in.OwnerName, c)
		}
	}
	if res.RGroups != rg || res.AGroups != ag || res.RMultiName != rm || res.AMultiName != am {
		t.Fatalf("%s: groups R%d A%d, multi-name R%d A%d; reference R%d A%d, R%d A%d",
			label, res.RGroups, res.AGroups, res.RMultiName, res.AMultiName, rg, ag, rm, am)
	}
}

// Property: the merge equals the reference's connected components, and
// their clusters, on random worlds.
func TestMergeEqualsBruteForceComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		infos := randomWorld(rng)
		checkReference(t, fmt.Sprintf("trial %d", trial), infos, build(infos))
	}
}

// edit changes one thing about a world: an owner renamed, an owner's
// base name changed, a row's certificate or ASN cluster changed, a
// prefix added or removed. It returns the new rows and the owners whose
// rows or base name it changed — what the pipeline's delta marks
// touched.
func edit(rng *rand.Rand, infos []PrefixInfo, serial int) ([]PrefixInfo, map[string]bool) {
	next := slices.Clone(infos)
	i := rng.Intn(len(next))
	owner := next[i].OwnerName
	touched := map[string]bool{owner: true}
	switch rng.Intn(6) {
	case 0: // renamed
		name := fmt.Sprintf("%s renamed%d", next[i].BaseName, serial)
		for j := range next {
			if next[j].OwnerName == owner {
				next[j].OwnerName = name
			}
		}
		touched[name] = true
	case 1: // base changed
		base := fmt.Sprintf("base%d", rng.Intn(4))
		for j := range next {
			if next[j].OwnerName == owner {
				next[j].BaseName = base
			}
		}
	case 2:
		next[i].CertSKI = randomKey(rng, "CERT")
	case 3:
		next[i].ASNCluster = randomKey(rng, "AS")
	case 4: // a prefix added, to an owner there or a new one
		p, _ := netx.NthSubprefix(mp("11.0.0.0/8"), 24, serial)
		in := PrefixInfo{p, owner, next[i].BaseName, randomKey(rng, "CERT"), randomKey(rng, "AS")}
		if rng.Intn(3) == 0 {
			in.OwnerName = fmt.Sprintf("%s new%d", in.BaseName, serial)
			touched[in.OwnerName] = true
		}
		next = append(next, in)
	case 5: // a prefix removed
		if len(next) > 1 {
			next = slices.Delete(next, i, i+1)
		}
	}
	return next, touched
}

// partition maps each owner to the sorted owner names of its cluster.
func partition(res *built) map[string]string {
	out := map[string]string{}
	for _, c := range res.Final {
		for _, o := range c.OwnerNames {
			out[o] = strings.Join(c.OwnerNames, "|")
		}
	}
	return out
}

// TestMergeEditSequence is the delta contract of Merge: a chain of
// single edits, each merged against the previous Result with only the
// edited owners marked touched, equals the reference and a merge from
// nothing after every edit — so reusing a cluster never keeps one the
// edit changed. The chain must merge and split clusters both.
func TestMergeEditSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edits, merges, splits, reused := 0, 0, 0, 0
	for trial := 0; edits < 250; trial++ {
		infos := randomWorld(rng)
		w := newWorld()
		prev := w.merge(nil, infos, nil)
		for range 10 {
			var touched map[string]bool
			infos, touched = edit(rng, infos, edits)
			edits++
			label := fmt.Sprintf("trial %d, edit %d", trial, edits)
			res := w.merge(prev.Result, infos, touched)
			checkReference(t, label, infos, res)
			full := build(infos)
			if len(res.Final) != len(full.Final) || res.WCount != full.WCount || res.MultiName != full.MultiName ||
				res.MultiNameV4 != full.MultiNameV4 || res.MultiNameV4Space != full.MultiNameV4Space {
				t.Fatalf("%s: the delta merge and a merge from nothing disagree", label)
			}
			for i := range full.Final {
				if !reflect.DeepEqual(*res.Final[i], *full.Final[i]) {
					t.Fatalf("%s: final cluster %d = %+v, from nothing %+v", label, i, *res.Final[i], *full.Final[i])
				}
			}
			if res.Rebuilt+res.Reused != len(res.Final) {
				t.Fatalf("%s: %d rebuilt + %d reused clusters, %d final", label, res.Rebuilt, res.Reused, len(res.Final))
			}
			reused += res.Reused
			before, after := partition(prev), partition(res)
			for o, c := range after {
				if b, ok := before[o]; ok {
					for o2, c2 := range after {
						if b2, ok := before[o2]; ok && c == c2 && b != b2 {
							merges++
						}
						if b2, ok := before[o2]; ok && c != c2 && b == b2 {
							splits++
						}
					}
				}
			}
			prev = res
		}
	}
	if merges == 0 || splits == 0 || reused == 0 {
		t.Errorf("%d edits: %d merged owner pairs, %d split, %d clusters reused; the chain must show each", edits, merges, splits, reused)
	}
	t.Logf("%d edits: %d merged owner pairs, %d split owner pairs, %d clusters reused", edits, merges, splits, reused)
}

// Order independence: shuffling the input rows yields identical clusters.
func TestOrderIndependence(t *testing.T) {
	infos := table3Infos()
	res1 := build(infos)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		shuffled := make([]PrefixInfo, len(infos))
		copy(shuffled, infos)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		res2 := build(shuffled)
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
	res := build([]PrefixInfo{
		{mp("10.0.0.0/16"), "acme", "acme", "C1", "A1"},
		{mp("10.0.0.0/16"), "acme", "acme", "C1", "A1"},
	})
	if len(res.Final) != 1 || len(res.Final[0].Prefixes) != 1 {
		t.Errorf("duplicate rows not deduped: %+v", res.Final)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
