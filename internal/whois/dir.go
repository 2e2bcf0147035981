package whois

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// Bulk-file naming inside a data directory's whois/ subdirectory. Each
// registry's snapshot is stored in its native flavour.
var registryFiles = []struct {
	Registry alloc.Registry
	File     string
}{
	{alloc.ARIN, "arin.db"},
	{alloc.RIPE, "ripe.db"},
	{alloc.APNIC, "apnic.db"},
	{alloc.AFRINIC, "afrinic.db"},
	{alloc.LACNIC, "lacnic.db"},
	{alloc.KRNIC, "krnic.db"},
	{alloc.TWNIC, "twnic.db"},
	{alloc.JPNIC, "jpnic.db"},
	{alloc.NICBR, "nicbr.db"},
	{alloc.NICMX, "nicmx.db"},
}

// JPNICTypesFile is the cache of per-block allocation types retrieved via
// individual JPNIC WHOIS queries (the paper performs these queries and we
// persist the answers so offline runs need no live server).
const JPNICTypesFile = "jpnic-alloctypes.db"

// LoadOptions configures LoadDir.
type LoadOptions struct {
	// JPNICClient, when non-nil, is used to query allocation types for
	// JPNIC blocks that are missing from the types cache file.
	JPNICClient *Client

	// Workers bounds how many registry bulk files parse, and flatten
	// into their runs, concurrently. 0 and negative values normalize to
	// runtime.GOMAXPROCS(0); 1 parses sequentially. A run depends on its
	// own file alone and the merge walks the runs in fixed registry
	// order, so the entries are identical for every worker count.
	Workers int
}

func (o LoadOptions) workerCount() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Sources is one load of a data directory's whois/ files, on its way to
// the Flat the pipeline reads: per registry file, the run it flattened
// to when this load re-read it, or the previous load's Flat to take its
// entries from. Flatten merges the two. Nothing here holds a parsed
// Record.
type Sources struct {
	prev  *Flat
	runs  []*run // one slot per registryFiles entry; nil = not re-read, or absent
	fresh []bool // per slot: this load re-read the file
	files []fileInfo
	// orgs is the union of the files' organisation objects, a later
	// registry's standing where two share an ID.
	orgs        map[string]string
	types       map[netip.Prefix]string // the JPNIC type cache; nil without the file
	reflattened int
}

// Records returns the number of registrations the registry files hold.
func (s *Sources) Records() int {
	n := 0
	for _, fi := range s.files {
		n += fi.records
	}
	return n
}

// Orgs returns the number of distinct organisation objects.
func (s *Sources) Orgs() int { return len(s.orgs) }

// Reflattened returns the number of registry files this load parsed and
// flattened itself; the other files' entries come from the previous
// load's Flat.
func (s *Sources) Reflattened() int { return s.reflattened }

// Flatten merges the registry files into one Flat, as Database.Flatten
// would over the files' records taken together in registry order: where
// several registries hold the same (prefix, status) the latest record
// wins and the earlier registry on a tie, and an org: reference resolves
// to whichever file defines the organisation. The ARIN allocations on
// the legacy non-signer list legacy are retyped. The files this load did
// not re-read take their entries — the winners and the losers of the
// previous merge — from the previous Flat, which stays as it was.
func (s *Sources) Flatten(legacy []netip.Prefix) (*Flat, FlattenStats) {
	var ins []input
	if s.prev != nil {
		// The previous Flat's entries of a re-read file are gone; its
		// losers go back in per registry, one entry per key each.
		var drop uint32
		for i, fresh := range s.fresh {
			if fresh {
				drop |= 1 << (i + 1) // registryIDs follow registryFiles
			}
		}
		tab := &table{strs: s.prev.strs}
		ins = append(ins, input{entries: s.prev.entries, tab: tab, drop: drop})
		byReg := map[uint8][]Entry{}
		for _, e := range s.prev.losers {
			if drop>>e.reg&1 == 0 {
				byReg[e.reg] = append(byReg[e.reg], e)
			}
		}
		for reg := range uint8(len(registryOf)) {
			if len(byReg[reg]) > 0 {
				ins = append(ins, input{entries: byReg[reg], tab: tab})
			}
		}
	}
	for _, r := range s.runs {
		if r != nil {
			ins = append(ins, input{entries: r.entries, tab: &table{strs: r.strs}})
		}
	}
	f := merge(ins, func(id string) (string, bool) {
		name, ok := s.orgs[id]
		return name, ok
	})
	f.files, f.types = s.files, s.types
	f.finish(legacy)
	stats := FlattenStats{Entries: len(f.entries)}
	for _, fi := range s.files {
		stats.Records += fi.records
		stats.Expanded += fi.expanded
	}
	return f, stats
}

// LoadDir reads every registry bulk file present under dir/whois and
// returns them flattened. Missing files are skipped (a data directory
// need not contain all registries); malformed files are errors. The
// per-registry files parse concurrently (see LoadOptions.Workers);
// errors are reported for the first failing registry in file order.
// JPNIC records are enriched with allocation types from the cache file
// and, if provided, the live client.
func LoadDir(ctx context.Context, dir string, opts LoadOptions) (*Flat, error) {
	src, err := LoadDirSources(ctx, dir, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	f, _ := src.Flatten(nil)
	return f, nil
}

// LoadDirSources is LoadDir at re-parse granularity. When prev — the Flat
// of an earlier load of a directory — is non-nil, a registry file whose
// slash-relative path ("whois/ripe.db") changed reports false for is not
// read from disk: Flatten takes its entries from prev. Only changed files
// re-parse and re-flatten — JPNIC's also when its types cache changed,
// since the types are part of its keys. Flatten merges the result into
// what a cold load of the same directory gives, and that Flat feeds the
// next incremental call.
func LoadDirSources(ctx context.Context, dir string, opts LoadOptions, prev *Flat, changed func(relPath string) bool) (*Sources, error) {
	wdir := filepath.Join(dir, "whois")
	logger := obs.Logger("whois")
	reg := obs.Default()
	if prev != nil && prev.files == nil {
		prev = nil // a Database's: nothing to take per file
	}
	reuse := func(relPath string) bool {
		return prev != nil && changed != nil && !changed(relPath)
	}
	src := &Sources{
		runs:  make([]*run, len(registryFiles)),
		fresh: make([]bool, len(registryFiles)),
		files: make([]fileInfo, len(registryFiles)),
	}
	reuseTypes := reuse("whois/" + JPNICTypesFile)
	if reuseTypes {
		src.types = prev.types
	}

	// Fan out: each registry file parses and flattens into its own slot;
	// sem bounds the parallelism. Missing files leave a nil slot.
	errs := make([]error, len(registryFiles))
	var typesErr error // reported behind every registry file's
	sem := make(chan struct{}, opts.workerCount())
	var wg sync.WaitGroup
	for i, rf := range registryFiles {
		jpnic := rf.Registry == alloc.JPNIC
		if reuse("whois/"+rf.File) && !(jpnic && (!reuseTypes || opts.JPNICClient != nil)) {
			src.files[i] = prev.files[i]
			continue
		}
		src.fresh[i] = true
		wg.Add(1)
		go func(i int, registry alloc.Registry, file string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			// The type cache is the JPNIC goroutine's alone, to load and
			// to read.
			var types map[netip.Prefix]string
			if jpnic {
				if !reuseTypes {
					src.types, typesErr = loadJPNICTypes(filepath.Join(wdir, JPNICTypesFile))
				}
				types = src.types
			}
			src.runs[i], errs[i] = loadRun(ctx, filepath.Join(wdir, file), registry, types, opts.JPNICClient)
			if src.runs[i] != nil {
				src.files[i] = src.runs[i].info
			}
		}(i, rf.Registry, rf.File)
	}
	wg.Wait()
	for _, err := range append(errs, typesErr) {
		if err != nil {
			return nil, err
		}
	}
	if prev != nil && slices.Contains(src.fresh, false) {
		src.prev = prev
	}
	// Counters cover only freshly parsed files, so reloads account for
	// work actually done; the log line describes the whole directory.
	registries, withOrgs, totalSkipped := 0, 0, 0
	for i, rf := range registryFiles {
		fi := &src.files[i]
		if !fi.present {
			continue
		}
		registries++
		totalSkipped += fi.skipped
		if len(fi.orgs) > 0 {
			withOrgs++
			src.orgs = fi.orgs
		}
		if !src.fresh[i] {
			continue
		}
		src.reflattened++
		name := string(rf.Registry)
		reg.Counter(obs.Label("whois_records_parsed_total", "registry", name)).Add(int64(fi.records))
		// Records whose allocation type cannot be resolved are invisible
		// to ownership resolution downstream.
		if fi.skipped > 0 {
			reg.Counter(obs.Label("whois_records_skipped_total", "registry", name)).Add(int64(fi.skipped))
		}
		logger.Debug("registry file parsed",
			"registry", name, "path", filepath.Join(wdir, rf.File),
			"records", fi.records, "orgs", len(fi.orgs))
	}
	if withOrgs > 1 {
		// One registry's objects are shared as they are; several are
		// poured together in registry order.
		src.orgs = map[string]string{}
		for _, fi := range src.files {
			for id, name := range fi.orgs {
				src.orgs[id] = name
			}
		}
	}
	logger.Info("whois databases loaded",
		"registries", registries, "records", src.Records(),
		"orgs", src.Orgs(), "unresolvable_type", totalSkipped)
	return src, nil
}

// loadRun reads the registry file at path into its run; a missing file
// is no run. The flavour's reader feeds the run builder record by record
// — status and organization strings interned, the fields no entry
// carries never allocated — and nothing of the file outlives the call
// but the run. JPNIC is the exception: its allocation types come from
// the cache and the live client, looked up by each record's first block,
// and they are part of the keys a run sorts by; so its records are
// collected, typed, and flattened then.
func loadRun(ctx context.Context, path string, reg alloc.Registry, types map[netip.Prefix]string, jpnic *Client) (*run, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("whois: open %s: %w", path, err)
	}
	defer f.Close() // read only
	var b runBuilder
	fc := fieldCopier{&b}
	emit := func(rec *Record) error {
		b.add(rec)
		return nil
	}
	var db *Database
	switch reg {
	case alloc.ARIN:
		err = scanARIN(f, fc, emit)
	case alloc.RIPE, alloc.APNIC, alloc.AFRINIC, alloc.KRNIC, alloc.TWNIC:
		err = scanRPSLRecords(f, reg, fc, emit, func(o Org) { b.addOrg(o.ID, o.Name) })
	case alloc.LACNIC, alloc.NICBR, alloc.NICMX:
		err = scanLACNIC(f, reg, fc, emit)
	case alloc.JPNIC:
		db = NewDatabase()
		err = scanJPNICBulk(f, fc, db.collect)
	default:
		err = fmt.Errorf("whois: no parser for registry %s", reg)
	}
	if err != nil {
		return nil, fmt.Errorf("whois: parse %s: %w", path, err)
	}
	if db != nil {
		ApplyJPNICTypes(db, types)
		if jpnic != nil {
			if err := EnrichJPNIC(ctx, db, jpnic); err != nil {
				return nil, fmt.Errorf("whois: jpnic enrichment: %w", err)
			}
		}
		for i := range db.Records {
			b.add(&db.Records[i])
		}
	}
	return b.finish(), nil
}

// loadJPNICTypes reads the allocation-type cache at path; a missing file
// is no cache.
func loadJPNICTypes(path string) (map[netip.Prefix]string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("whois: open %s: %w", path, err)
	}
	defer f.Close() // read only
	types, err := ParseJPNICTypes(f)
	if err != nil {
		return nil, fmt.Errorf("whois: parse %s: %w", path, err)
	}
	return types, nil
}

// WriteDir serializes per-registry databases into dir/whois in each
// registry's native flavour. dbs maps registry to its database.
func WriteDir(dir string, dbs map[alloc.Registry]*Database, jpnicTypes map[netip.Prefix]string) error {
	for _, rf := range registryFiles {
		db, ok := dbs[rf.Registry]
		if !ok {
			continue
		}
		err := fsx.WriteFile(filepath.Join(dir, "whois", rf.File), func(w io.Writer) error {
			return writeRegistryFile(w, db, rf.Registry)
		})
		if err != nil {
			return fmt.Errorf("whois: %w", err)
		}
	}
	if len(jpnicTypes) > 0 {
		err := fsx.WriteFile(filepath.Join(dir, "whois", JPNICTypesFile), func(w io.Writer) error {
			return WriteJPNICTypes(w, jpnicTypes)
		})
		if err != nil {
			return fmt.Errorf("whois: %w", err)
		}
	}
	return nil
}

func writeRegistryFile(w io.Writer, db *Database, reg alloc.Registry) error {
	switch reg {
	case alloc.ARIN:
		return WriteARIN(w, db)
	case alloc.RIPE, alloc.APNIC, alloc.AFRINIC, alloc.KRNIC, alloc.TWNIC:
		return WriteRPSL(w, db, reg)
	case alloc.LACNIC, alloc.NICBR, alloc.NICMX:
		return WriteLACNIC(w, db)
	case alloc.JPNIC:
		return WriteJPNICBulk(w, db)
	default:
		return fmt.Errorf("whois: no writer for registry %s", reg)
	}
}

// ParseJPNICTypes reads the allocation-type cache: "prefix|status" lines.
func ParseJPNICTypes(r io.Reader) (map[netip.Prefix]string, error) {
	out := map[netip.Prefix]string{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		spec, status, ok := strings.Cut(line, "|")
		if !ok {
			return nil, fmt.Errorf("whois: jpnic types line %d: malformed %q", lineNo, line)
		}
		p, err := netip.ParsePrefix(strings.TrimSpace(spec))
		if err != nil {
			return nil, fmt.Errorf("whois: jpnic types line %d: %w", lineNo, err)
		}
		out[p.Masked()] = strings.TrimSpace(status)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJPNICTypes writes the allocation-type cache in deterministic order.
func WriteJPNICTypes(w io.Writer, types map[netip.Prefix]string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# JPNIC per-block allocation types (whois query cache)")
	keys := make([]netip.Prefix, 0, len(types))
	for p := range types {
		keys = append(keys, p)
	}
	sortPrefixes(keys)
	for _, p := range keys {
		fmt.Fprintf(bw, "%s|%s\n", p, types[p])
	}
	return bw.Flush()
}

// ApplyJPNICTypes fills Status on JPNIC records from the cache.
func ApplyJPNICTypes(db *Database, types map[netip.Prefix]string) {
	for i := range db.Records {
		r := &db.Records[i]
		if r.Registry != alloc.JPNIC || r.Status != "" || len(r.Prefixes) == 0 {
			continue
		}
		if s, ok := types[r.Prefixes[0]]; ok {
			r.Status = s
		}
	}
}
