package as2org_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// refDSU is the string-keyed union-find BuildClusters ran on before it
// moved to positions in the sorted ASN list, kept verbatim for the
// reference below.
type refDSU struct {
	parent map[string]string
	size   map[string]int
}

func newRefDSU() *refDSU {
	return &refDSU{parent: map[string]string{}, size: map[string]int{}}
}

func (d *refDSU) Add(x string) {
	if _, ok := d.parent[x]; !ok {
		d.parent[x] = x
		d.size[x] = 1
	}
}

func (d *refDSU) Find(x string) string {
	d.Add(x)
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

func (d *refDSU) Union(a, b string) string {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

func (d *refDSU) Sets() [][]string {
	groups := map[string][]string{}
	for x := range d.parent {
		r := d.Find(x)
		groups[r] = append(groups[r], x)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refClusters carries Clusters' fields and read methods, verbatim.
type refClusters struct {
	id      map[uint32]string
	members map[string][]uint32
}

func key(asn uint32) string { return strconv.FormatUint(uint64(asn), 10) }

func (c *refClusters) ClusterID(asn uint32) string {
	if id, ok := c.id[asn]; ok {
		return id
	}
	return key(asn)
}

func (c *refClusters) Same(a, b uint32) bool { return c.ClusterID(a) == c.ClusterID(b) }

func (c *refClusters) Members(asn uint32) []uint32 {
	if ms, ok := c.members[c.ClusterID(asn)]; ok && len(ms) > 0 {
		return ms
	}
	return []uint32{asn}
}

// buildClustersReference is the string-DSU BuildClusters body, verbatim:
// the oracle the position-keyed BuildClusters is held to.
func buildClustersReference(d *as2org.Dataset) *refClusters {
	u := newRefDSU()
	byOrg := map[string]uint32{}
	asns := make([]uint32, 0, len(d.ASes))
	for asn := range d.ASes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		info := d.ASes[asn]
		u.Add(key(asn))
		if info.OrgID == "" {
			continue
		}
		if first, ok := byOrg[info.OrgID]; ok {
			u.Union(key(first), key(asn))
		} else {
			byOrg[info.OrgID] = asn
		}
	}
	for _, s := range d.Siblings {
		for i := 1; i < len(s.ASNs); i++ {
			u.Union(key(s.ASNs[0]), key(s.ASNs[i]))
		}
	}
	c := &refClusters{id: map[uint32]string{}, members: map[string][]uint32{}}
	for _, set := range u.Sets() {
		ms := make([]uint32, 0, len(set))
		for _, k := range set {
			asn, err := strconv.ParseUint(k, 10, 32)
			if err != nil {
				continue // unreachable: keys are produced by key()
			}
			ms = append(ms, uint32(asn))
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		if len(ms) == 0 {
			continue
		}
		id := key(ms[0])
		c.members[id] = ms
		for _, m := range ms {
			c.id[m] = id
		}
	}
	return c
}

// checkClustersMatchReference holds BuildClusters to the reference on
// every ASN the dataset names plus the extra probes: same ClusterID,
// same Members, and Same on every pair.
func checkClustersMatchReference(t *testing.T, d *as2org.Dataset, extra ...uint32) {
	t.Helper()
	got, want := d.BuildClusters(), buildClustersReference(d)
	asns := append([]uint32(nil), extra...)
	for asn := range d.ASes {
		asns = append(asns, asn)
	}
	for _, s := range d.Siblings {
		asns = append(asns, s.ASNs...)
	}
	for _, a := range asns {
		if g, w := got.ClusterID(a), want.ClusterID(a); g != w {
			t.Fatalf("ClusterID(%d) = %s, reference %s", a, g, w)
		}
		if g, w := got.Members(a), want.Members(a); !reflect.DeepEqual(g, w) {
			t.Fatalf("Members(%d) = %v, reference %v", a, g, w)
		}
	}
	if len(asns) > 400 {
		asns = asns[:400] // the pairwise check is quadratic
	}
	for _, a := range asns {
		for _, b := range asns {
			if got.Same(a, b) != want.Same(a, b) {
				t.Fatalf("Same(%d,%d) = %v, reference %v", a, b, got.Same(a, b), want.Same(a, b))
			}
		}
	}
}

func TestBuildClustersMatchesReferenceOnSmallWorld(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.AS2Org.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := as2org.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ASes) == 0 || len(d.Siblings) == 0 {
		t.Fatalf("small world has %d ASes and %d sibling sets: nothing to compare", len(d.ASes), len(d.Siblings))
	}
	checkClustersMatchReference(t, d, 0, 4294967295)
}

// TestBuildClustersMatchesReferenceOnRandomGraphs draws small org and
// sibling graphs that hit the edges: sibling ASNs absent from ASes, empty
// and one-member sibling sets, a set repeated or naming one ASN twice,
// and ASNs with an empty OrgID.
func TestBuildClustersMatchesReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orgIDs := []string{"", "", "O1", "O2", "O3", "O4", "O5"}
	for trial := 0; trial < 300; trial++ {
		d := as2org.NewDataset()
		const space = 60 // ASNs 1..space; roughly half registered
		for asn := uint32(1); asn <= space; asn++ {
			if rng.Intn(2) == 0 {
				d.AddAS(asn, orgIDs[rng.Intn(len(orgIDs))], "", "")
			}
		}
		for s := rng.Intn(8); s > 0; s-- {
			set := make([]uint32, rng.Intn(5)) // 0..4 members
			for i := range set {
				set[i] = 1 + uint32(rng.Intn(space+20)) // some beyond every AS
			}
			d.AddSiblings("as2org+", set...)
			if rng.Intn(4) == 0 {
				d.AddSiblings("IIL-AS2Org", set...)
			}
		}
		checkClustersMatchReference(t, d, 0, space+100)
	}
}
