package lpm_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/prefix2org/prefix2org/internal/lpm"
)

func benchWorld(n int) ([]netip.Prefix, []netip.Addr) {
	rng := rand.New(rand.NewSource(99))
	prefixes := randomWorld(rng, n)
	addrs := make([]netip.Addr, 4096)
	for i := range addrs {
		p := prefixes[rng.Intn(len(prefixes))]
		addrs[i] = p.Addr()
	}
	return prefixes, addrs
}

// BenchmarkFrozenLookup measures the frozen index's longest-prefix
// match — the whoisd per-query primitive. Expect 0 allocs/op.
func BenchmarkFrozenLookup(b *testing.B) {
	prefixes, addrs := benchWorld(100000)
	items := make([]lpm.Item, len(prefixes))
	for i, p := range prefixes {
		items[i] = lpm.Item{Prefix: p, Val: int32(i)}
	}
	ix := lpm.Freeze(items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkFreeze measures index compilation, the snapshot-build cost.
func BenchmarkFreeze(b *testing.B) {
	prefixes, _ := benchWorld(100000)
	items := make([]lpm.Item, len(prefixes))
	for i, p := range prefixes {
		items[i] = lpm.Item{Prefix: p, Val: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lpm.Freeze(items).Len() == 0 {
			b.Fatal("empty index")
		}
	}
}
