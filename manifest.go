package prefix2org

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// manifestDirs are the input subdirectories the manifest covers — the
// sources the build pipeline actually reads. Anything else in the data
// directory (ground truth, scratch files) is invisible to the manifest
// and therefore never triggers a delta rebuild.
var manifestDirs = []string{"whois", "bgp", "rpki", "as2org", "delegated"}

// ManifestEntry is one hashed input file.
type ManifestEntry struct {
	// Path is the file's path relative to the data directory, always
	// with forward slashes (e.g. "whois/ripe.db").
	Path string
	// Size is the file's length in bytes.
	Size int64
	// SHA256 is the hash of the file's content.
	SHA256 [32]byte
}

// Manifest records the content hash of every per-source input file a
// build consumed, sorted by path. It is captured at build time, carried
// on the Dataset, and diffed by BuildDelta to decide which sources to
// re-parse.
type Manifest struct {
	Entries []ManifestEntry
}

// BuildManifest hashes every regular file under the covered input
// subdirectories of dir. Missing subdirectories are fine (an input a
// deployment does not use simply contributes no entries). Symbolic links
// are followed, as the loaders that open the files follow them: a linked
// file, or every file of a linked directory, is listed under its path in
// dir, and a link whose target is missing or not a regular file or
// directory is skipped like any other non-regular entry. The files are
// hashed on up to GOMAXPROCS goroutines.
func BuildManifest(ctx context.Context, dir string) (*Manifest, error) {
	return buildManifest(ctx, dir, runtime.GOMAXPROCS(0))
}

// buildManifest is BuildManifest on up to workers goroutines: the walk
// lists the files first, then each worker hashes the files it claims,
// in walk order, with a digest and a copy buffer of its own. When files
// fail, the error of the first in walk order is the one reported — the
// error a walk that hashed each file as it reached it would stop at.
func buildManifest(ctx context.Context, dir string, workers int) (*Manifest, error) {
	paths, walkErr := manifestFiles(ctx, dir)
	m := &Manifest{Entries: make([]ManifestEntry, len(paths))}
	errs := make([]error, len(paths))
	var next atomic.Int64
	var failed atomic.Bool
	hash := func() {
		// io.Copy with a plain hash.Hash allocates a fresh 32KB buffer per
		// file, which shows up on every delta rebuild's no-op floor.
		h := sha256.New()
		buf := make([]byte, 128*1024)
		// Files are claimed in walk order and a claimed file is always
		// hashed, so once one fails every file before it has been, and
		// none after it needs to be.
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(paths) {
				return
			}
			if errs[i] = ctx.Err(); errs[i] == nil {
				m.Entries[i], errs[i] = hashFile(paths[i], h, buf)
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	// The caller's goroutine is one of the workers: with one, it hashes
	// every file itself.
	var wg sync.WaitGroup
	for range min(workers, len(paths)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hash()
		}()
	}
	hash()
	wg.Wait()
	for _, err := range append(errs, walkErr) {
		if err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
	}
	for i, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		m.Entries[i].Path = filepath.ToSlash(rel)
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path })
	return m, nil
}

// manifestFiles lists the files BuildManifest hashes, in walk order:
// manifestDirs in turn, each in lexical order, depth first. A walk
// error ends the list; the files before it are returned with it.
func manifestFiles(ctx context.Context, dir string) ([]string, error) {
	var files []string
	// ancestors are the directories being walked, the innermost last: a
	// linked directory that is one of them would walk forever.
	var ancestors []os.FileInfo
	// visit lists p, or the files under it, given what p is — a link's
	// target, for a link.
	var visit func(p string, fi os.FileInfo) error
	visit = func(p string, fi os.FileInfo) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			files = append(files, p)
			return nil
		}
		if !fi.IsDir() || slices.ContainsFunc(ancestors, func(a os.FileInfo) bool { return os.SameFile(a, fi) }) {
			return nil
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		ancestors = append(ancestors, fi)
		defer func() { ancestors = ancestors[:len(ancestors)-1] }()
		for _, e := range ents {
			child := filepath.Join(p, e.Name())
			if e.Type().IsRegular() {
				files = append(files, child)
				continue
			}
			link := e.Type()&fs.ModeSymlink != 0
			if !link && !e.IsDir() {
				continue
			}
			// Stat follows a link to what it names; a dangling link, or
			// one whose target cannot be examined, is skipped.
			cfi, err := os.Stat(child)
			if err != nil {
				if link {
					continue
				}
				return err
			}
			if err := visit(child, cfi); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sub := range manifestDirs {
		root := filepath.Join(dir, sub)
		fi, err := os.Stat(root)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return files, err
		}
		if err := visit(root, fi); err != nil {
			return files, err
		}
	}
	return files, nil
}

func hashFile(p string, h hash.Hash, buf []byte) (ManifestEntry, error) {
	f, err := os.Open(p)
	if err != nil {
		return ManifestEntry{}, err
	}
	defer f.Close()
	h.Reset()
	// The wrapper hides *os.File's WriterTo so CopyBuffer actually uses
	// buf instead of delegating to a path that allocates its own.
	n, err := io.CopyBuffer(h, struct{ io.Reader }{f}, buf)
	if err != nil {
		return ManifestEntry{}, err
	}
	var e ManifestEntry
	e.Size = n
	h.Sum(e.SHA256[:0])
	return e, nil
}

// manifestMagic is the first line of the text encoding.
const manifestMagic = "p2o-manifest v1"

// Encode renders the manifest in its canonical text form: the magic
// line, then one "<sha256-hex> <size> <path>" line per entry in path
// order. The encoding is canonical — manifests with equal entries encode
// to identical bytes.
func (m *Manifest) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(manifestMagic)
	b.WriteByte('\n')
	for _, e := range m.Entries {
		b.WriteString(hex.EncodeToString(e.SHA256[:]))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(e.Size, 10))
		b.WriteByte(' ')
		b.WriteString(e.Path)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ParseManifest decodes the canonical text form. It rejects anything
// Encode would not produce: wrong magic, malformed lines, unsorted or
// duplicate paths.
func ParseManifest(data []byte) (*Manifest, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, fmt.Errorf("manifest: bad magic")
	}
	if lines[len(lines)-1] != "" {
		return nil, fmt.Errorf("manifest: missing trailing newline")
	}
	m := &Manifest{}
	for i, ln := range lines[1 : len(lines)-1] {
		parts := strings.SplitN(ln, " ", 3)
		if len(parts) != 3 || parts[2] == "" {
			return nil, fmt.Errorf("manifest: line %d: want \"<hash> <size> <path>\"", i+2)
		}
		raw, err := hex.DecodeString(parts[0])
		if err != nil || len(raw) != sha256.Size {
			return nil, fmt.Errorf("manifest: line %d: bad hash", i+2)
		}
		size, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || size < 0 || parts[1] != strconv.FormatInt(size, 10) {
			return nil, fmt.Errorf("manifest: line %d: bad size", i+2)
		}
		var e ManifestEntry
		copy(e.SHA256[:], raw)
		e.Size = size
		e.Path = parts[2]
		if n := len(m.Entries); n > 0 && m.Entries[n-1].Path >= e.Path {
			return nil, fmt.Errorf("manifest: line %d: paths not strictly sorted", i+2)
		}
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}

// Diff returns the paths that differ from old — content-changed, added,
// and removed alike — in sorted order. A nil old means everything
// changed.
func (m *Manifest) Diff(old *Manifest) []string {
	var out []string
	var oe []ManifestEntry
	if old != nil {
		oe = old.Entries
	}
	i, j := 0, 0
	for i < len(m.Entries) || j < len(oe) {
		switch {
		case j >= len(oe) || (i < len(m.Entries) && m.Entries[i].Path < oe[j].Path):
			out = append(out, m.Entries[i].Path) // added
			i++
		case i >= len(m.Entries) || oe[j].Path < m.Entries[i].Path:
			out = append(out, oe[j].Path) // removed
			j++
		default:
			if m.Entries[i] != oe[j] {
				out = append(out, m.Entries[i].Path)
			}
			i++
			j++
		}
	}
	return out
}
