// Package prefix2org maps BGP-routed prefixes to the organizations that
// hold them, reproducing the Prefix2Org system (Gouda, Dainotti, Testart —
// IMC 2025).
//
// For every routed prefix the pipeline determines:
//
//   - the Direct Owner — the organization holding the most authoritative
//     control over the address block: provider independence (R1), usually
//     the right to sub-delegate (R2), and the authority to issue RPKI
//     certificates (R3);
//   - the chain of Delegated Customers — holders of sub-delegated space,
//     in hierarchical order;
//   - the final cluster — prefixes whose Direct Owners are the same
//     organization registered under different WHOIS names, aggregated via
//     base-name extraction plus two independent signals: shared RPKI
//     Resource Certificates and shared origin-ASN clusters.
//
// # Usage
//
//	ds, err := prefix2org.BuildFromDir(ctx, "data/", prefix2org.Options{})
//	if err != nil { ... }
//	rec, ok := ds.Lookup(netip.MustParsePrefix("63.80.52.0/24"))
//	fmt.Println(rec.DirectOwner, rec.FinalCluster)
//
// The data directory layout (produced by cmd/p2o-synth, or by converters
// from real snapshots) is:
//
//	whois/{arin,ripe,apnic,afrinic,lacnic,jpnic,krnic,twnic,nicbr,nicmx}.db
//	whois/jpnic-alloctypes.db      (per-block WHOIS query cache)
//	whois/arin-legacy-nonsigners.db
//	bgp/rib.mrt
//	rpki/snapshot.jsonl
//	as2org/as2org.jsonl
package prefix2org

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/as2org"
	"github.com/prefix2org/prefix2org/internal/bgp"
	"github.com/prefix2org/prefix2org/internal/cluster"
	"github.com/prefix2org/prefix2org/internal/delegated"
	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/names"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// BuildTrace is the per-stage accounting of one pipeline run: for every
// stage its wall time plus the record counts flowing in, out, and
// dropped (unmapped prefixes, specificity-filtered routes, de-duplicated
// WHOIS registrations). It is attached to the Dataset, logged when the
// build completes, and printed by cmd/prefix2org under -trace.
type BuildTrace = obs.Trace

// Options configures the pipeline.
type Options struct {
	// JPNICWhoisAddr, when set, is the host:port of a WHOIS server used
	// to resolve allocation types for JPNIC blocks missing from the
	// types cache file.
	JPNICWhoisAddr string

	// Workers bounds the parallelism of the build: the input-manifest
	// hashing, the concurrent corpus loads in BuildFromDir, the
	// per-registry WHOIS bulk-file parses, the per-prefix
	// ownership-resolution worker pool, the per-name tracing of
	// clean-names, and the finish passes run beside each other.
	//
	// Zero-value semantics: 0 — and, defensively, any negative value —
	// normalizes to runtime.GOMAXPROCS(0), so the zero Options remains a
	// working default and can never configure an empty (deadlocking)
	// pool. Workers=1 runs every stage sequentially, preserving the
	// serial pipeline's behaviour exactly. Any worker count produces
	// identical Records, Clusters, Stats and Trace counts — only wall
	// times (and the per-stage Workers annotation) differ.
	Workers int

	// Ablation switches, used by the §6 component analysis: disable the
	// RPKI-certificate signal (no R clusters), the origin-ASN signal (no
	// A clusters), or base-name cleaning (exact names only — clustering
	// then degenerates to the paper's "Default Clusters" W).
	DisableRPKIClusters bool
	DisableASNClusters  bool
	DisableNameCleaning bool

	// Incremental makes BuildFromDir capture the per-source input
	// manifest plus the parsed inputs and pass-1 state on the Dataset,
	// so a later BuildDelta over the same directory can re-parse only
	// the files that changed and re-resolve only the affected prefixes.
	// It costs memory (the retained inputs) and one manifest hashing
	// pass; the produced Dataset is byte-identical either way.
	Incremental bool
}

// deltaCompatible reports whether a delta rebuild under next can splice
// into state built under o: every option that shapes the pipeline's
// output must match, and live JPNIC enrichment is rejected outright
// (its answers depend on a remote server, not on the input files the
// manifest covers). Workers is exempt — any worker count produces
// identical output.
func (o Options) deltaCompatible(next Options) bool {
	return o.DisableRPKIClusters == next.DisableRPKIClusters &&
		o.DisableASNClusters == next.DisableASNClusters &&
		o.DisableNameCleaning == next.DisableNameCleaning &&
		o.JPNICWhoisAddr == "" && next.JPNICWhoisAddr == ""
}

// Record is the Prefix2Org data for one routed prefix (Listing 1 of the
// paper).
type Record struct {
	Prefix netip.Prefix `json:"-"`
	// RIR is the registry zone of the most specific WHOIS record.
	RIR string `json:"RIR"`
	// DirectOwner is the exact WHOIS name of the Direct Owner
	// organization.
	DirectOwner string `json:"Direct Owner (DO)"`
	// DOPrefix is the Direct Owner's delegated block covering the routed
	// prefix.
	DOPrefix netip.Prefix `json:"-"`
	// DOType is the Direct Owner delegation's allocation type (with the
	// Prefix2Org modified legacy types where applicable).
	DOType string `json:"DO Allocation Type"`
	// DelegatedCustomers lists the Delegated Customer organization names
	// in hierarchical order (outermost first). When the prefix has no
	// sub-delegation, it contains just the Direct Owner.
	DelegatedCustomers []string `json:"Delegated Customer(s) (DC)"`
	// DCPrefixes and DCTypes parallel DelegatedCustomers.
	DCPrefixes []netip.Prefix `json:"-"`
	DCTypes    []string       `json:"DC Allocation Type(s)"`
	// BaseName is the cleaned Direct Owner base name.
	BaseName string `json:"Base name"`
	// RPKICert is the child-most Resource Certificate covering the
	// prefix ("" when uncovered).
	RPKICert string `json:"RPKI Certificate,omitempty"`
	// OriginASN is the canonical BGP origin (0 if the prefix vanished
	// from the table between listing and lookup — not expected in
	// practice).
	OriginASN uint32 `json:"-"`
	// ASNCluster is the origin's ASN-cluster ID.
	ASNCluster string `json:"Origin ASN Cluster,omitempty"`
	// FinalCluster is the merged cluster ID ("verizon-076541" style).
	FinalCluster string `json:"Final Cluster"`
}

// HasDistinctCustomer reports whether the prefix's most specific holder is
// a Delegated Customer different from the Direct Owner (§6: 31.7% of IPv4,
// 17% of IPv6 prefixes).
func (r *Record) HasDistinctCustomer() bool {
	return len(r.DelegatedCustomers) > 0 &&
		r.DelegatedCustomers[len(r.DelegatedCustomers)-1] != r.DirectOwner
}

// Cluster is a final prefix cluster (one inferred organization): its
// ID, base name, exact owner names and prefixes. A built Dataset shares
// each cluster a delta did not rebuild with the Dataset before it; a
// Cluster is never written once a build returns it.
type Cluster = cluster.Cluster

// Stats are the dataset-level metrics of the paper's Table 4 and §6.
type Stats struct {
	IPv4Prefixes, IPv6Prefixes int
	// Unmapped counts routed prefixes with no covering WHOIS record
	// (paper: 0.04%).
	Unmapped int
	// DirectOwners / DelegatedCustomers are unique exact names at each
	// ownership level; OnlyCustomers are names never seen as Direct
	// Owner.
	DirectOwners, DelegatedCustomers, OnlyCustomers int
	BaseNames                                       int
	OriginASNs                                      int
	PrefixRPKIGroups, PrefixASNGroups               int
	RPKIMultiNameGroups, ASNMultiNameGroups         int
	BaseClusters, FinalClusters                     int
	MultiNameClusters                               int
	PctV4InMultiName, PctV6InMultiName              float64
	PctV4SpaceInMultiName                           float64
	// PctV4DistinctDC / PctV6DistinctDC: prefixes whose most specific
	// holder differs from the Direct Owner.
	PctV4DistinctDC, PctV6DistinctDC float64
	// PctV4InRPKI / PctV6InRPKI: routed prefixes covered by a Resource
	// Certificate (paper: 88% / 96.7%).
	PctV4InRPKI, PctV6InRPKI float64
	// NameCleaning is the Table 2 step breakdown.
	NameCleaning names.StepCounts
}

// Dataset is the full Prefix2Org mapping. It comes in two shapes: a
// built Dataset (Build, BuildFromDir, BuildDelta) holds its Records and
// Clusters in memory; a read one (Load, LoadFile, OpenSnapshotFile) is a
// view over the bytes of a v2 snapshot (Lazy reports which). Every method
// answers the same on both; code outside the build reads records and
// clusters through NumRecords/RecordAt and NumClusters/ClusterAt.
type Dataset struct {
	// Records are a built Dataset's records, in routed order. They are
	// nil on a read Dataset.
	Records []Record
	// Clusters are a built Dataset's final clusters, sorted by ID. They
	// are nil on a read Dataset.
	Clusters []*Cluster
	Stats    Stats
	// Trace is the build's per-stage accounting. It is populated by
	// Build/BuildFromDir and not persisted by Save/Load.
	Trace *BuildTrace

	// owners and merge find a built Dataset's cluster by basic-cleaned
	// owner name: the name's owner ID in the build's name table, then that
	// owner's final cluster. A read Dataset searches the snapshot's owners
	// table instead.
	owners map[string]int32
	merge  *cluster.Result
	// idx is the frozen longest-prefix-match index over the routed
	// prefixes — the only prefix-keyed structure, behind Lookup,
	// LookupAddr, LookupCovering and CoveringChainInto: flat sorted
	// arrays mapping each prefix to its record's position,
	// immutable once built, shared by any number of concurrent readers.
	// On a read Dataset its columns alias the snapshot's file bytes
	// (lpm.ViewColumns).
	idx *lpm.Index
	// view is the sliced sections and materialization tables of a read
	// Dataset, nil on a built one. See snapview.go.
	view *snapView
	// state is the retained delta-rebuild state (Options.Incremental
	// builds only): the input manifest and the loaded sources BuildDelta
	// splices against — the pass-1 slots it keeps are read back from
	// Records. Nil otherwise; never persisted.
	state *buildState
}

// Lookup returns the record for a routed prefix.
//
//p2o:hotpath
func (d *Dataset) Lookup(p netip.Prefix) (*Record, bool) {
	if d.idx == nil {
		return nil, false
	}
	// The longest match of p is p itself exactly when p is routed.
	m, ok := d.idx.Match(p)
	if !ok || m.Prefix() != p.Masked() {
		return nil, false
	}
	return d.RecordAt(int(m.Val())), true
}

// LookupAddr returns the record of the most specific routed prefix
// covering addr — the longest-prefix match a WHOIS address query or a
// data-plane attribution needs. It performs zero heap allocations, so
// the serve path can call it per query at line rate.
//
//p2o:hotpath
func (d *Dataset) LookupAddr(a netip.Addr) (*Record, bool) {
	if d.idx == nil {
		return nil, false
	}
	i, ok := d.idx.Lookup(a)
	if !ok {
		return nil, false
	}
	return d.RecordAt(int(i)), true
}

// LookupCovering returns the record of the most specific routed prefix
// covering p (p itself included when it is routed) — the fallback for
// queries about sub-prefixes that are not announced on their own. Like
// LookupAddr it allocates nothing.
//
//p2o:hotpath
func (d *Dataset) LookupCovering(p netip.Prefix) (*Record, bool) {
	if d.idx == nil {
		return nil, false
	}
	i, ok := d.idx.LookupPrefix(p)
	if !ok {
		return nil, false
	}
	return d.RecordAt(int(i)), true
}

// CoveringChainInto appends the records of every routed prefix
// covering p to buf, least specific first, and returns the extended
// buffer. With a caller-reused buffer the call performs no heap
// allocations.
//
//p2o:hotpath
func (d *Dataset) CoveringChainInto(p netip.Prefix, buf []*Record) []*Record {
	if d.idx == nil {
		return buf
	}
	start := len(buf)
	for m, ok := d.idx.Match(p); ok; m, ok = m.Parent() {
		buf = append(buf, d.RecordAt(int(m.Val())))
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// freezeIndex freezes the LPM index behind every per-prefix query over
// recs: each record's prefix mapped to its position.
func freezeIndex(recs []Record) *lpm.Index {
	items := make([]lpm.Item, len(recs))
	for i := range recs {
		items[i] = lpm.Item{Prefix: recs[i].Prefix, Val: int32(i)}
	}
	return lpm.Freeze(items)
}

// ClusterByID returns a final cluster by its ID. Of several clusters
// sharing an ID (which the build never produces) the last one wins.
func (d *Dataset) ClusterByID(id string) (*Cluster, bool) {
	if d.view != nil {
		return d.view.clusterByID(id)
	}
	// Clusters are sorted by ID: i is one past the run of id.
	i := sort.Search(len(d.Clusters), func(i int) bool { return d.Clusters[i].ID > id })
	if i == 0 || d.Clusters[i-1].ID != id {
		return nil, false
	}
	return d.Clusters[i-1], true
}

// ClusterOfOwner returns the cluster containing the exact Direct Owner
// name (matching is case-insensitive on the basic-cleaned form).
func (d *Dataset) ClusterOfOwner(name string) (*Cluster, bool) {
	if d.view != nil {
		return d.view.clusterOfOwner(basicClean(name))
	}
	id, ok := d.owners[basicClean(name)]
	if !ok {
		return nil, false
	}
	c := d.merge.Of(id)
	return c, c != nil
}

func basicClean(s string) string {
	if basicCleaned(s) {
		return s
	}
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// basicCleaned reports whether s is already in basic-cleaned form —
// ASCII with no uppercase letters, no whitespace other than single
// interior spaces — so basicClean can return it without allocating.
// Any non-ASCII byte disqualifies the fast path: Unicode case folding
// and space classes are left to the slow path.
func basicCleaned(s string) bool {
	prevSpace := true // a leading space is not clean
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b >= 0x80 || ('A' <= b && b <= 'Z'):
			return false
		case b == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		case b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r':
			return false
		default:
			prevSpace = false
		}
	}
	return !prevSpace || s == ""
}

// Build runs the full pipeline over in-memory inputs. Most callers use
// BuildFromDir. The context cancels the build between passes and
// periodically inside the per-prefix resolution pass; a cancelled build
// returns ctx.Err().
func Build(ctx context.Context, db *whois.Database, table *bgp.Table, repo *rpki.Repository, asData *as2org.Dataset, arinLegacyNonSigned []netip.Prefix, opts Options) (*Dataset, error) {
	if db == nil || table == nil || repo == nil || asData == nil {
		return nil, fmt.Errorf("prefix2org: nil input")
	}
	// The sources are parsed already, so the load step has one job left:
	// flattening the WHOIS database into the delegation index.
	next := newBuildState(nil, opts)
	next.arinLegacy, next.routed, next.origins = arinLegacyNonSigned, table.Prefixes(), table.LowestOrigins()
	*next.env = resolveEnv{table: table, certs: repo.CertIndex(), asClusters: asData.BuildClusters()}
	res, err := rebuild(ctx, obs.NewTrace("build"), nil, next, []loadJob{{"flatten-whois", func(_ context.Context, span *obs.Span) error {
		next.env.whois = flattenWhois(span, func() (*whois.Flat, whois.FlattenStats) {
			return db.FlattenWithStats(arinLegacyNonSigned)
		})
		return nil
	}}})
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// resolveChunk is the number of prefixes a resolve worker claims at a
// time. Chunked claiming keeps the pool balanced when covering-chain
// depth varies across the address space, while staying coarse enough
// that the shared claim counter is off the profile; workers check the
// context once per chunk.
const resolveChunk = 256

// workerCount normalizes Options.Workers: zero and negative values
// select runtime.GOMAXPROCS(0) (see the field's godoc), so callers can
// never configure an empty pool.
func (o Options) workerCount() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// adaptiveThreshold is the corpus-frequency cutoff of base-name
// cleaning's frequent-word drop, for a corpus of n names (the full
// multiset, duplicates included).
func adaptiveThreshold(n int) int {
	// The paper's 100-occurrence cutoff over 81k names scales roughly as
	// corpus/800; keep a floor so tiny corpora are not over-pruned.
	t := n / 800
	if t < 10 {
		t = 10
	}
	return t
}

// resolveScratch is the working memory of one resolve worker, reused
// from prefix to prefix so the pass allocates only what a Record keeps.
type resolveScratch struct {
	chain []int32      // covering chain: group ids, least specific first
	typed []typedEntry // one chain level, typed and in hierarchical order
	// The Delegated Customer chain while it is walked.
	custs []string
	prefs []netip.Prefix
	types []string
}

// typedEntry pairs a WHOIS entry (in place, in the delegation index)
// with its resolved allocation type and its organization name.
type typedEntry struct {
	e   *whois.Entry
	t   alloc.Type
	org string
}

// typeLevel resolves the allocation types of the entries registered at
// one block and puts them in hierarchical order: Direct Owner types
// first, then by sub-delegation depth (§5.2's Allocation→Reallocation→
// Reassignment ordering), then by name for determinism. Entries with an
// unresolvable status are skipped. The result is s.typed: valid until
// the next call.
func (s *resolveScratch) typeLevel(flat *whois.Flat, es []whois.Entry) []typedEntry {
	s.typed = s.typed[:0]
	for i := range es {
		e := &es[i]
		if t, err := flat.Type(e); err == nil {
			s.typed = append(s.typed, typedEntry{e, t, flat.OrgName(e)})
		}
	}
	slices.SortStableFunc(s.typed, func(a, b typedEntry) int {
		if c := cmp.Compare(a.t.Depth, b.t.Depth); c != 0 {
			return c
		}
		return strings.Compare(a.org, b.org)
	})
	return s.typed
}

func (s *resolveScratch) addCustomer(name string, p netip.Prefix, typ string) {
	s.custs, s.prefs, s.types = append(s.custs, name), append(s.prefs, p), append(s.types, typ)
}

func (s *resolveScratch) reverseCustomers() {
	slices.Reverse(s.custs)
	slices.Reverse(s.prefs)
	slices.Reverse(s.types)
}

// resolveOwnership implements §5.2: given the covering WHOIS chain for
// p (s.chain: group ids of groups, least specific first, as produced by
// CoveringInto), resolve the Delegated Customer chain and walk up to
// the Direct Owner.
func (s *resolveScratch) resolveOwnership(flat *whois.Flat, certs *rpki.CertIndex, p netip.Prefix) (Record, bool) {
	if len(s.chain) == 0 {
		return Record{}, false
	}
	rec := Record{Prefix: p}

	// Walk from most specific upwards.
	level := len(s.chain) - 1
	groups := flat.Groups()
	most := s.typeLevel(flat, groups.At(s.chain[level]))
	if len(most) == 0 {
		return Record{}, false
	}
	rec.RIR = string(alloc.Parent(most[0].e.Registry()))

	setDO := func(t typedEntry) {
		rec.DirectOwner = t.org
		rec.DOPrefix = t.e.Prefix()
		rec.DOType = doTypeName(t, certs)
	}
	// done hands rec the customer chain: the only memory a mapped prefix
	// costs.
	done := func() (Record, bool) {
		rec.DelegatedCustomers = slices.Clone(s.custs)
		rec.DCPrefixes = slices.Clone(s.prefs)
		rec.DCTypes = slices.Clone(s.types)
		return rec, true
	}
	// Collect DC chain at the most specific level.
	s.custs, s.prefs, s.types = s.custs[:0], s.prefs[:0], s.types[:0]
	for _, t := range most {
		if !t.t.DirectOwner() {
			s.addCustomer(t.org, t.e.Prefix(), t.t.Name)
		}
	}
	// If the most specific record set includes a Direct Owner type, that
	// organization is the Direct Owner; when there are no sub-delegation
	// records at all, it is also the Delegated Customer.
	for _, t := range most {
		if t.t.DirectOwner() {
			setDO(t)
			if len(s.custs) == 0 {
				s.addCustomer(t.org, t.e.Prefix(), rec.DOType)
			}
			return done()
		}
	}
	// Otherwise move up the tree through intermediate Delegated
	// Customers until a Direct Owner delegation appears. The chain reads
	// outermost first, each level in hierarchical order; walking inside
	// out, it is collected backwards and turned round once at the end.
	s.reverseCustomers()
	for level--; level >= 0; level-- {
		ts := s.typeLevel(flat, groups.At(s.chain[level]))
		for _, t := range ts {
			if t.t.DirectOwner() {
				setDO(t)
				s.reverseCustomers()
				return done()
			}
		}
		for i := len(ts) - 1; i >= 0; i-- {
			s.addCustomer(ts[i].org, ts[i].e.Prefix(), ts[i].t.Name)
		}
	}
	// No Direct Owner delegation found anywhere in the chain: attribute
	// to the outermost holder but flag by leaving DOType empty is NOT
	// done — the paper counts these prefixes as mapped to Delegated
	// Customers only; we keep the outermost customer as owner-of-record.
	// (The most specific level held only customers, so the chain is not
	// empty.)
	s.reverseCustomers()
	rec.DirectOwner, rec.DOPrefix, rec.DOType = s.custs[0], s.prefs[0], s.types[0]
	return done()
}

// doTypeName maps a Direct Owner record to its reported type name,
// applying the RIPE Legacy-Not-Sponsored inference: legacy space whose
// child-most certificate is absent or shared (not a member account
// certificate) cannot issue RPKI certificates.
func doTypeName(t typedEntry, certs *rpki.CertIndex) string {
	if t.t.Registry == alloc.RIPE && t.t.Name == "Legacy" {
		c, ok := certs.ChildMostRC(t.e.Prefix())
		if !ok || strings.Contains(c.Subject, "legacy") {
			return "Legacy-Not-Sponsored"
		}
	}
	return t.t.Name
}

// verifyDelegated runs the footnote-2 verification: when
// delegated-extended statistics files are present, confirm that no RIR
// delegation is coarser than /8 (IPv4) or /16 (IPv6) — the
// justification for the BGP specificity filter. A delta rebuild re-runs
// it only when a delegated/ file changed.
func verifyDelegated(ctx context.Context, dir string, span *obs.Span) error {
	// The minimums are folded from the stream: no record is kept.
	lens := map[alloc.Registry]*delegated.MinLens{}
	files, err := delegated.ScanDir(ctx, dir, func(rir alloc.Registry, rec *delegated.Record) error {
		m := lens[rir]
		if m == nil {
			m = delegated.NewMinLens()
			lens[rir] = m
		}
		return m.Add(rec)
	})
	if err != nil {
		return fmt.Errorf("prefix2org: load delegated files: %w", err)
	}
	span.Add("files", int64(files))
	for _, rir := range alloc.RIRs {
		if m := lens[rir]; m != nil && (m.V4 < 8 || m.V6 < 16) {
			return fmt.Errorf("prefix2org: %s delegated a block coarser than /8 (v4 min /%d) or /16 (v6 min /%d); the BGP specificity filter would drop real delegations", rir, m.V4, m.V6)
		}
	}
	return nil
}

// loadARINLegacy reads the optional ARIN legacy non-signer list from the
// data directory; a missing file is an empty list.
func loadARINLegacy(dir string) ([]netip.Prefix, error) {
	legacyPath := filepath.Join(dir, "whois", whois.ARINLegacyFile)
	f, err := os.Open(legacyPath)
	if os.IsNotExist(err) {
		return nil, nil // the list is optional
	}
	if err != nil {
		return nil, fmt.Errorf("prefix2org: open %s: %w", legacyPath, err)
	}
	legacy, err := whois.ParsePrefixList(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("prefix2org: parse %s: %w", legacyPath, err)
	}
	return legacy, nil
}

// loadJob is one job of a build's load step: the name of its trace span
// and the function that fills the build's state for its source. Jobs run
// concurrently, so each writes only its own results and reads nothing
// another job of the same run writes.
type loadJob struct {
	name string
	run  func(ctx context.Context, span *obs.Span) error
}

// runLoaders runs jobs, each under its own trace span, and waits for all
// of them. Jobs start in slice order, at most workers of them at a time
// (so one after another when workers is 1). The spans are opened up
// front, in slice order, so the trace lists them — and, behind them, any
// span a job opens for a stage of its own — in the same order at every
// worker count. When several jobs fail, the error of the first in slice
// order wins; a failing job cancels its ctx-aware siblings and keeps the
// jobs behind it from running. A run cut short by the caller's context
// returns ctx.Err() unwrapped.
func runLoaders(ctx context.Context, tr *obs.Trace, workers int, jobs []loadJob) error {
	// errgroup-style fan-out on the standard library: first-error capture
	// in fixed job order, and a derived context so a failing job cancels
	// ctx-aware siblings.
	lctx, stop := context.WithCancel(ctx)
	defer stop()
	errs := make([]error, len(jobs))
	spans := make([]*obs.Span, len(jobs))
	for i, j := range jobs {
		spans[i] = tr.Start(j.name)
	}
	// A job holds a slot while it runs, so at most workers of them — and
	// of their parse buffers — are in flight at once.
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, j := range jobs {
		slots <- struct{}{}
		wg.Add(1)
		// Each job goroutine is the single writer of its own span.
		go func(i int, run func(context.Context, *obs.Span) error, span *obs.Span) {
			defer wg.Done()
			defer func() { <-slots }()
			span.Restart()
			defer span.End()
			if err := lctx.Err(); err != nil {
				errs[i] = err
				return
			}
			if err := run(lctx, span); err != nil {
				errs[i] = err
				stop()
			}
		}(i, j.run, spans[i])
	}
	wg.Wait()
	// Prefer a real failure over the cancellations it induced in its
	// siblings; when every failure is a cancellation, surface the parent
	// context's error unwrapped.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	if firstCancel != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		return firstCancel
	}
	return nil
}

// flattenWhois runs flatten — a Database's flatten, or the merge of a
// directory's registry files — under span, which counts what it
// flattened: the delegation index (§5.2), one group of entries per
// registered block, ARIN allocations on the legacy non-signer list
// retyped.
func flattenWhois(span *obs.Span, flatten func() (*whois.Flat, whois.FlattenStats)) *whois.Flat {
	defer span.End()
	flat, fstats := flatten()
	span.Add("records", int64(fstats.Records))
	span.Add("entries", int64(fstats.Entries))
	span.Add("deduped", int64(fstats.Deduped()))
	return flat
}

// dirLoaders is the load job of every source of a data directory, keyed
// by its manifestDirs name: each parses its source from dir and replaces
// that source's share of next, which starts out holding what the
// previous build loaded (nothing, for a full build). changed reports
// whether a manifest path differs from what the previous build read, so
// the whois job re-parses only those registry files.
func dirLoaders(dir string, tr *obs.Trace, next *buildState, changed func(relPath string) bool) map[string]loadJob {
	return map[string]loadJob{
		"whois": {"load-whois", func(ctx context.Context, span *obs.Span) error {
			lopts := whois.LoadOptions{Workers: next.opts.Workers}
			if next.opts.JPNICWhoisAddr != "" {
				lopts.JPNICClient = &whois.Client{Addr: next.opts.JPNICWhoisAddr}
			}
			src, err := whois.LoadDirSources(ctx, dir, lopts, next.env.whois, changed)
			if err != nil {
				return fmt.Errorf("prefix2org: load whois: %w", err)
			}
			span.Add("records", int64(src.Records()))
			span.Add("orgs", int64(src.Orgs()))
			// load-whois times the parse and each changed registry file's own
			// flatten. The job's two further stages run here rather than after
			// the join, beside the other sources' parses, each under a span of
			// its own.
			span.End()
			if changed("whois/" + whois.ARINLegacyFile) {
				legacySpan := tr.Start("load-arin-legacy")
				next.arinLegacy, err = loadARINLegacy(dir)
				legacySpan.Add("prefixes", int64(len(next.arinLegacy)))
				legacySpan.End()
				if err != nil {
					return err
				}
			}
			// flatten-whois times the merge of the registries' runs, the
			// legacy retype and the grouping.
			flatSpan := tr.Start("flatten-whois")
			flatSpan.Add("reflattened", int64(src.Reflattened()))
			next.env.whois = flattenWhois(flatSpan, func() (*whois.Flat, whois.FlattenStats) {
				return src.Flatten(next.arinLegacy)
			})
			return nil
		}},
		"bgp": {"load-bgp", func(ctx context.Context, span *obs.Span) error {
			table, err := bgp.LoadDir(ctx, dir)
			if err != nil {
				return fmt.Errorf("prefix2org: load bgp: %w", err)
			}
			next.env.table, next.routed, next.origins = table, table.Prefixes(), table.LowestOrigins()
			span.Add("mrt-entries", int64(table.EntryCount()))
			span.Add("prefixes", int64(table.Len()))
			span.Add("specificity-filtered", int64(table.FilteredCount()))
			return nil
		}},
		"rpki": {"load-rpki", func(ctx context.Context, span *obs.Span) error {
			repo, err := rpki.LoadDir(ctx, dir)
			if err != nil {
				return fmt.Errorf("prefix2org: load rpki: %w", err)
			}
			// The build reads only the certificate side: the ROAs, their
			// index and the repository's maps go when this job returns.
			next.env.certs = repo.CertIndex()
			span.Add("certs", int64(len(repo.Certs)))
			span.Add("roas", int64(len(repo.ROAs)))
			return nil
		}},
		"as2org": {"load-as2org", func(ctx context.Context, span *obs.Span) error {
			asData, err := as2org.LoadDir(ctx, dir)
			if err != nil {
				return fmt.Errorf("prefix2org: load as2org: %w", err)
			}
			next.env.asClusters = asData.BuildClusters()
			span.Add("ases", int64(len(asData.ASes)))
			return nil
		}},
		"delegated": {"verify-delegated", func(ctx context.Context, span *obs.Span) error {
			return verifyDelegated(ctx, dir, span)
		}},
	}
}

// BuildFromDir loads a data directory and runs the pipeline. The
// returned Dataset carries a BuildTrace covering both the load stages
// and the build passes.
//
// The loaders — WHOIS directory (with the ARIN legacy non-signer list
// and the flatten into the delegation index), BGP RIBs, the RPKI
// repository, AS2Org, and the delegated-statistics footnote-2
// verification — run concurrently when Options.Workers permits, each
// under its own trace span; Workers=1 runs them one after another. The
// first loader error wins (reported in fixed loader order when several
// fail), and a context cancellation surfaces as ctx.Err() unwrapped.
func BuildFromDir(ctx context.Context, dir string, opts Options) (*Dataset, error) {
	res, err := rebuildDir(ctx, obs.NewTrace("build"), nil, dir, opts)
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}
