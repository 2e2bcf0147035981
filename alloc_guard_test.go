package prefix2org

import (
	"context"
	"net/netip"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// Allocation-regression guards for the serve path. These run under
// `make verify`: a change that re-introduces per-query heap traffic in
// the frozen-index lookups fails the build, not a later profiling
// session. The lpm package carries the same guards for the raw index
// (internal/lpm TestLookupZeroAlloc).

func TestLookupAddrZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	addrs := make([]netip.Addr, 0, 64)
	for i := range ds.Records {
		addrs = append(addrs, ds.Records[i].Prefix.Addr())
		if len(addrs) == cap(addrs) {
			break
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ds.LookupAddr(addrs[i%len(addrs)]); !ok {
			t.Fatal("lookup miss")
		}
		i++
	}); n != 0 {
		t.Errorf("LookupAddr allocates %.1f times per call, want 0", n)
	}
}

func TestLookupCoveringZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	p := ds.Records[0].Prefix
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := ds.LookupCovering(p); !ok {
			t.Fatal("lookup miss")
		}
	}); n != 0 {
		t.Errorf("LookupCovering allocates %.1f times per call, want 0", n)
	}
}

func TestCoveringChainIntoZeroAlloc(t *testing.T) {
	_, ds := buildWorldDataset(t)
	p := ds.Records[0].Prefix
	buf := make([]*Record, 0, 32)
	if n := testing.AllocsPerRun(200, func() {
		buf = ds.CoveringChainInto(p, buf[:0])
		if len(buf) == 0 {
			t.Fatal("empty chain")
		}
	}); n != 0 {
		t.Errorf("CoveringChainInto allocates %.1f times per call with a warm buffer, want 0", n)
	}
}

// TestResolveChainWalkZeroAlloc guards the build path's hottest walk:
// resolveOne's covering WHOIS chain, written into the worker's reused
// buffer, for every routed prefix of the world.
func TestResolveChainWalkZeroAlloc(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := BuildFromDir(context.Background(), dir, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, routed := ds.state.env.whois.Index(), ds.state.routed
	buf := make([]int32, 0, 64)
	i, links := 0, 0
	if n := testing.AllocsPerRun(len(routed), func() {
		buf = ix.CoveringInto(routed[i%len(routed)], buf[:0])
		links += len(buf)
		i++
	}); n != 0 {
		t.Errorf("covering-chain walk allocates %.1f times per prefix with a warm buffer, want 0", n)
	}
	if links < len(routed) {
		t.Fatalf("walked %d chain links over %d routed prefixes: the guard measured nothing", links, len(routed))
	}
}
