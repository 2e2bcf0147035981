package dsu

import (
	"math/rand"
	"testing"
)

func same(d *DSU, a, b int32) bool { return d.Find(a) == d.Find(b) }

func TestBasicUnionFind(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	d.Union(2, 3)
	if !same(d, 0, 1) || !same(d, 2, 3) {
		t.Error("unioned elements not in same set")
	}
	if same(d, 0, 2) {
		t.Error("separate sets reported same")
	}
	d.Union(1, 2)
	if !same(d, 0, 3) {
		t.Error("transitive union failed")
	}
}

func TestNewSingletons(t *testing.T) {
	d := New(3)
	for x := int32(0); x < 3; x++ {
		if d.Find(x) != x {
			t.Errorf("Find(%d) = %d: a fresh element is not its own representative", x, d.Find(x))
		}
	}
	if len(New(0).parent) != 0 {
		t.Error("New(0) is not empty")
	}
}

func TestUnionSelf(t *testing.T) {
	d := New(2)
	d.Union(0, 0)
	if d.Find(0) != 0 || same(d, 0, 1) {
		t.Error("self-union changed the partition")
	}
}

// TestUnionBySize pins the representative choice: the larger set's root
// survives a union, the first argument's on a tie.
func TestUnionBySize(t *testing.T) {
	d := New(5)
	d.Union(1, 0) // tie: 1 survives
	if d.Find(0) != 1 {
		t.Fatalf("tie: representative %d, want 1", d.Find(0))
	}
	d.Union(4, 0) // {1,0} is larger than {4}
	if d.Find(4) != 1 {
		t.Errorf("larger set's root lost: representative %d, want 1", d.Find(4))
	}
	if d.Find(2) != 2 || d.Find(3) != 3 {
		t.Error("untouched elements moved")
	}
}

// Property: DSU partition matches brute-force connected components of the
// union graph.
func TestAgainstBruteForceComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		const n = 50
		d := New(n)
		adj := make([][]int32, n)
		for e := 0; e < 40; e++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			d.Union(a, b)
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		// Brute-force BFS components.
		comp := make([]int, n)
		c := 0
		for start := range comp {
			if comp[start] != 0 {
				continue
			}
			c++
			queue := []int32{int32(start)}
			comp[start] = c
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for _, nb := range adj[cur] {
					if comp[nb] == 0 {
						comp[nb] = c
						queue = append(queue, nb)
					}
				}
			}
		}
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if same(d, a, b) != (comp[a] == comp[b]) {
					t.Fatalf("trial %d: Same(%d,%d)=%v but components %d,%d", trial, a, b, same(d, a, b), comp[a], comp[b])
				}
			}
		}
	}
}
