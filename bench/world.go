package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// World sizing. 7 000 organizations is ~33 k routed prefixes — 5x the
// scale the go-test benchmarks track. synth.Generate costs ~0.24 ms per
// organization and every run regenerates its world from --seed, so the
// ISSUE's 14 000-org world (and its five evolve steps) does not fit the
// driver's wall-clock budget of 158 runs; raise this when synth gets
// cheaper.
const (
	fullOrgs  = 7000
	quickOrgs = 300
)

// deltaSteps are the two mutations behind reload-delta's step
// directories s1 and s2. s0 -> s1 is routing-only churn (only
// bgp/rib.mrt changes), s1 -> s2 rewrites WHOIS, delegated, RPKI, AS2Org
// and BGP files, and s2 -> s0 reverts everything at once — three delta
// steps of different kinds from two (costly) Evolve calls. Never
// MonthsLater: it dirties every record, which is a full rebuild by
// another name.
var deltaSteps = []synth.EvolveOptions{
	{OriginShifts: 200},
	{Transfers: 5, NewDelegations: 5, NewAdopters: 3, Acquisitions: 2},
}

// reloadStep is both of them at once: serve-under-reload flips its data
// directory between s0 and this s1, so every reload is the same heavy
// kind and the window's slices are alike.
var reloadStep = []synth.EvolveOptions{
	{OriginShifts: 200, Transfers: 5, NewDelegations: 5, NewAdopters: 3, Acquisitions: 2},
}

// stepKinds names the delta step that arrives at s1, s2, s0.
var stepKinds = []string{"bgp", "whois", "revert"}

// derive gives each consumer of randomness its own stream from --seed.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	io.WriteString(h, label)
	return int64(h.Sum64() >> 1)
}

// inputs is what a run's workload consumes: the step directories on
// disk and what generating them cost.
type inputs struct {
	dirs                    []string // s0, then one per evolve step
	generate, evolve, write time.Duration
	digest                  string // sha256 over the input manifests
}

// makeInputs generates the seed's world and writes s0, then one more
// directory after each evolve step.
func makeInputs(ctx context.Context, work string, seed int64, orgs int, steps []synth.EvolveOptions) (*inputs, error) {
	in := &inputs{}
	t := time.Now()
	w, err := synth.Generate(synth.Config{Seed: derive(seed, "world"), NumOrgs: orgs, Collectors: 3})
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	in.generate = time.Since(t)
	h := sha256.New()
	emit := func(i int) error {
		dir := filepath.Join(work, fmt.Sprintf("s%d", i))
		t := time.Now()
		if err := w.WriteDir(dir); err != nil {
			return fmt.Errorf("write %s: %w", dir, err)
		}
		in.write += time.Since(t)
		in.dirs = append(in.dirs, dir)
		m, err := prefix2org.BuildManifest(ctx, dir)
		if err != nil {
			return fmt.Errorf("manifest %s: %w", dir, err)
		}
		h.Write(m.Encode())
		return nil
	}
	if err := emit(0); err != nil {
		return nil, err
	}
	for i, st := range steps {
		st.Seed = derive(seed, fmt.Sprintf("evolve%d", i+1))
		t := time.Now()
		if w, err = w.Evolve(st); err != nil {
			return nil, fmt.Errorf("evolve step %d: %w", i+1, err)
		}
		in.evolve += time.Since(t)
		if err := emit(i + 1); err != nil {
			return nil, err
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// copyDir copies every regular file under src over dst, through a
// temporary name and a rename so a reader never sees half a file.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tmp := target + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, target)
	})
}

// Query kinds; the HTTP front end routes each to its own endpoint and
// whoisd tells them apart by shape.
const (
	kindAddr = iota
	kindPrefix
	kindOrg
)

// query is one pre-generated request. Text is what a WHOIS client
// sends and what the HTTP path ends in; Status is the HTTP status the
// reference dataset predicts.
type query struct {
	Kind   uint8
	Status uint16
	Text   string
}

// httpPath is the query's request path, unescaped and escaped.
func (q *query) httpPath() (path, raw string) {
	switch q.Kind {
	case kindAddr:
		return "/v1/addr/" + q.Text, ""
	case kindPrefix:
		return "/v1/prefix/" + q.Text, ""
	}
	path = "/v1/org/" + q.Text
	if esc := "/v1/org/" + url.PathEscape(q.Text); esc != path {
		return path, esc
	}
	return path, ""
}

// unroutedShare of address queries fall in 240.0.0.0/4, which synth
// never allocates: the correct answer is a 404, in every step dir.
const unroutedShare = 0.05

// queryGen draws queries over all of ref's records — the "cold"
// distribution: random host bits inside a random routed prefix, half
// of the prefix queries more-specifics that need the covering
// fallback, a twentieth of the address queries unrouted.
type queryGen struct {
	ref  *prefix2org.Dataset
	also []*prefix2org.Dataset
	rng  *rand.Rand
	n    int
}

func newQueryGen(ref *prefix2org.Dataset, seed int64) *queryGen {
	return &queryGen{ref: ref, rng: rand.New(rand.NewSource(seed)), n: ref.NumRecords()}
}

func (g *queryGen) randomPrefix() netip.Prefix {
	return g.ref.RecordAt(g.rng.Intn(g.n)).Prefix
}

// addrIn returns a with the bits below p's length randomized.
func (g *queryGen) addrIn(p netip.Prefix) netip.Addr {
	raw := p.Addr().AsSlice()
	for bit := p.Bits(); bit < len(raw)*8; bit++ {
		if g.rng.Intn(2) == 1 {
			raw[bit/8] |= 1 << (7 - bit%8)
		}
	}
	a, _ := netip.AddrFromSlice(raw)
	return a
}

func (g *queryGen) addr() netip.Addr {
	if g.rng.Float64() < unroutedShare {
		return netip.AddrFrom4([4]byte{byte(240 + g.rng.Intn(15)), byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(g.rng.Intn(256))})
	}
	return g.addrIn(g.randomPrefix())
}

// next draws one query by the addr 70 / prefix 20 / org 10 mix, with
// the status ref predicts for it. When the run serves other datasets
// too (also), draws they would answer differently are thrown back: a
// cluster ID, say, does not survive a re-clustering.
func (g *queryGen) next() query {
	for {
		q := g.draw()
		found := expect(g.ref, &q, true).outcome != "no_match"
		q.Status = 200
		if !found {
			q.Status = 404
		}
		stable := true
		for _, ds := range g.also {
			if (expect(ds, &q, true).outcome != "no_match") != found {
				stable = false
			}
		}
		if stable {
			return q
		}
	}
}

func (g *queryGen) draw() query {
	switch n := g.rng.Intn(100); {
	case n < 70:
		return query{Kind: kindAddr, Text: g.addr().String()}
	case n < 90:
		p := g.randomPrefix()
		if g.rng.Intn(2) == 1 && p.Bits() < p.Addr().BitLen()-4 {
			// A more-specific of a routed prefix: not announced itself.
			p = netip.PrefixFrom(g.addrIn(p), p.Bits()+1+g.rng.Intn(4)).Masked()
		}
		return query{Kind: kindPrefix, Text: p.String()}
	default:
		rec := g.ref.RecordAt(g.rng.Intn(g.n))
		if g.rng.Intn(2) == 1 {
			return query{Kind: kindOrg, Text: rec.FinalCluster}
		}
		return query{Kind: kindOrg, Text: rec.DirectOwner}
	}
}

func (g *queryGen) stream(n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// digestQueries folds a query stream into the workload digest, so two
// runs on one seed can be shown to have sent the same requests.
func digestQueries(h io.Writer, qs []query) {
	for i := range qs {
		fmt.Fprintf(h, "%d %d %s\n", qs[i].Kind, qs[i].Status, qs[i].Text)
	}
}
