package dsu

// DSU is a disjoint-set union over the dense integers 0..n-1, with path
// compression and union by size. Callers intern their keys to positions
// first.
type DSU struct {
	parent []int32
	size   []int32
}

// New returns a DSU of n singleton sets.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int32) int32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root { // path compression
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Union merges the sets containing a and b. The larger set's
// representative survives; on a tie, a's does.
func (d *DSU) Union(a, b int32) {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
}
