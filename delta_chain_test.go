package prefix2org

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/prefix2org/prefix2org/internal/synth"
)

// chainPool is a chain of data directories of one synth.SmallConfig
// world: pool[0] is the world as generated, and each later directory is
// its predecessor after one edit of the kind it is named for. want is
// each directory's full-build snapshot.
type chainPool struct {
	dirs  []string
	kinds []string
	want  [][]byte
}

// chainEdits are the edit kinds of the pool, in chain order: BGP-only
// churn, WHOIS churn (a transfer and a new delegation), and RPKI churn
// both ways. Each kind appears twice, so the pool holds the same kind
// from two different starting points.
var chainEdits = []struct {
	kind string
	opts synth.EvolveOptions
}{
	{"bgp", synth.EvolveOptions{OriginShifts: 3}},
	{"whois", synth.EvolveOptions{Transfers: 1, NewDelegations: 1}},
	{"rpki-adopt", synth.EvolveOptions{NewAdopters: 2}},
	{"bgp", synth.EvolveOptions{OriginShifts: 3}},
	{"whois", synth.EvolveOptions{Transfers: 2}},
	{"rpki-revoke", synth.EvolveOptions{Revocations: 2}},
}

func newChainPool(tb testing.TB) *chainPool {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	root := tb.TempDir()
	p := &chainPool{}
	add := func(kind string) {
		dir := filepath.Join(root, fmt.Sprint(len(p.dirs)))
		if err := w.WriteDir(dir); err != nil {
			tb.Fatal(err)
		}
		full, err := BuildFromDir(context.Background(), dir, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := full.SaveBinary(&buf); err != nil {
			tb.Fatal(err)
		}
		p.dirs, p.kinds, p.want = append(p.dirs, dir), append(p.kinds, kind), append(p.want, buf.Bytes())
	}
	add("generate")
	for i, e := range chainEdits {
		e.opts.Seed = int64(500 + i)
		if w, err = w.Evolve(e.opts); err != nil {
			tb.Fatal(err)
		}
		add(e.kind)
	}
	return p
}

// maxChainSteps bounds the steps one fuzz input decodes to.
const maxChainSteps = 8

// FuzzDeltaChain drives BuildDelta through sequences of edits nobody
// wrote down. Each input byte is one step, to pool directory
// byte % len(pool): to the next directory it is one edit of that
// directory's kind, to an earlier one a revert, to a later one several
// edits at once. Every chain starts from one shared Incremental build
// of pool[0], which no delta may disturb. After every step the chain's
// Dataset must save to the bytes of a full build of the directory it
// stands on. The steps are all edits a build must take, so no step may
// return an error but ErrNoChange, which leaves the chain where it was.
func FuzzDeltaChain(f *testing.F) {
	pool := newChainPool(f)
	base, err := BuildFromDir(context.Background(), pool.dirs[0], Options{Incremental: true})
	if err != nil {
		f.Fatal(err)
	}
	// One seed per edit kind, reached one edit at a time, then reverts
	// and jumps.
	for i := 1; i < len(pool.dirs); i++ {
		seed := make([]byte, i)
		for j := range seed {
			seed[j] = byte(j + 1)
		}
		if i > 3 {
			seed = seed[i-3:] // start with a jump: three steps a seed at most
		}
		f.Add(seed)
	}
	f.Add([]byte{3, 0})       // revert a WHOIS edit and the edits before it
	f.Add([]byte{2, 1, 2, 1}) // one WHOIS edit, applied and reverted twice
	f.Add([]byte{6, 3, 6, 0}) // jumps both ways over every kind
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > maxChainSteps {
			steps = steps[:maxChainSteps]
		}
		prev, at := base, 0
		for n, b := range steps {
			to := int(b) % len(pool.dirs)
			res, err := BuildDelta(context.Background(), prev, pool.dirs[to], Options{Incremental: true})
			switch {
			case errors.Is(err, ErrNoChange):
				if to != at {
					t.Fatalf("step %d (%d → %d, %s): ErrNoChange between different directories", n, at, to, pool.kinds[to])
				}
			case err != nil:
				t.Fatalf("step %d (%d → %d, %s): BuildDelta: %v", n, at, to, pool.kinds[to], err)
			default:
				prev, at = res.Dataset, to
			}
			var buf bytes.Buffer
			if err := prev.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), pool.want[at]) {
				t.Fatalf("step %d (to %d, %s): the delta chain %v differs from a full build", n, to, pool.kinds[to], steps[:n+1])
			}
		}
		var buf bytes.Buffer
		if err := base.SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), pool.want[0]) {
			t.Fatalf("the chain %v changed the build it started from", steps)
		}
	})
}
