package rpki

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// Snapshot (de)serialization: the repository is persisted as line-oriented
// JSON — one object per line, certificates first — the shape of a
// flattened RPKIviews dump. Line orientation keeps very large snapshots
// streamable.

type certJSON struct {
	Kind      string   `json:"kind"` // "cer"
	SKI       string   `json:"ski"`
	AKI       string   `json:"aki,omitempty"`
	Subject   string   `json:"subject"`
	Registry  string   `json:"registry"`
	Resources []string `json:"resources"`
	TA        bool     `json:"trustAnchor,omitempty"`
}

type roaJSON struct {
	Kind      string `json:"kind"` // "roa"
	Prefix    string `json:"prefix"`
	MaxLength int    `json:"maxLength"`
	ASN       uint32 `json:"asn"`
	CertSKI   string `json:"certSKI"`
}

// Write serializes the repository. Objects are emitted in deterministic
// order — of copies: sorting r.Certs in place would re-point every
// *Certificate the indexes of a built repository hold.
func (r *Repository) Write(w io.Writer) error {
	sorted := Repository{Certs: slices.Clone(r.Certs), ROAs: slices.Clone(r.ROAs)}
	sorted.SortObjects()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range sorted.Certs {
		res := make([]string, len(c.Resources))
		for i, p := range c.Resources {
			res[i] = p.String()
		}
		if err := enc.Encode(certJSON{Kind: "cer", SKI: c.SKI, AKI: c.AKI,
			Subject: c.Subject, Registry: string(c.Registry), Resources: res, TA: c.TrustAnchor}); err != nil {
			return fmt.Errorf("rpki: encode cert %s: %w", c.SKI, err)
		}
	}
	for _, roa := range sorted.ROAs {
		if err := enc.Encode(roaJSON{Kind: "roa", Prefix: roa.Prefix.String(),
			MaxLength: roa.MaxLength, ASN: roa.ASN, CertSKI: roa.CertSKI}); err != nil {
			return fmt.Errorf("rpki: encode roa %s: %w", roa.Prefix, err)
		}
	}
	return bw.Flush()
}

// Read parses a snapshot written by Write and builds (validates + indexes)
// the repository.
func Read(rd io.Reader) (*Repository, error) {
	repo := NewRepository()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
		}
		switch kind.Kind {
		case "cer":
			var cj certJSON
			if err := json.Unmarshal(line, &cj); err != nil {
				return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
			}
			c := Certificate{SKI: cj.SKI, AKI: cj.AKI, Subject: cj.Subject, Registry: alloc.Registry(cj.Registry), TrustAnchor: cj.TA}
			for _, s := range cj.Resources {
				p, err := netip.ParsePrefix(s)
				if err != nil {
					return nil, fmt.Errorf("rpki: line %d: resource %q: %w", lineNo, s, err)
				}
				c.Resources = append(c.Resources, p.Masked())
			}
			repo.AddCert(c)
		case "roa":
			var rj roaJSON
			if err := json.Unmarshal(line, &rj); err != nil {
				return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
			}
			p, err := netip.ParsePrefix(rj.Prefix)
			if err != nil {
				return nil, fmt.Errorf("rpki: line %d: prefix %q: %w", lineNo, rj.Prefix, err)
			}
			repo.AddROA(ROA{Prefix: p.Masked(), MaxLength: rj.MaxLength, ASN: rj.ASN, CertSKI: rj.CertSKI})
		default:
			return nil, fmt.Errorf("rpki: line %d: unknown object kind %q", lineNo, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rpki: scan: %w", err)
	}
	if err := repo.Build(); err != nil {
		return nil, err
	}
	return repo, nil
}

// SnapshotFile is the snapshot's location inside a data directory.
const SnapshotFile = "rpki/snapshot.jsonl"

// WriteDir writes the repository snapshot under dir.
func (r *Repository) WriteDir(dir string) error {
	path := filepath.Join(dir, SnapshotFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("rpki: mkdir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rpki: create %s: %w", path, err)
	}
	werr := r.Write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadDir reads the snapshot under dir. A missing snapshot yields an
// empty (but built) repository: the pipeline degrades to name+ASN
// clustering only, as the paper's does for uncovered space. The
// context is honored before the read starts.
func LoadDir(ctx context.Context, dir string) (*Repository, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, SnapshotFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		obs.Logger("rpki").Info("no snapshot; clustering degrades to name+ASN signals", "path", path)
		repo := NewRepository()
		if err := repo.Build(); err != nil {
			return nil, err
		}
		return repo, nil
	}
	if err != nil {
		return nil, fmt.Errorf("rpki: open %s: %w", path, err)
	}
	defer f.Close()
	repo, err := Read(f)
	if err != nil {
		return nil, err
	}
	reg := obs.Default()
	reg.Counter("rpki_certs_loaded_total").Add(int64(len(repo.Certs)))
	reg.Counter("rpki_roas_loaded_total").Add(int64(len(repo.ROAs)))
	obs.Logger("rpki").Info("snapshot loaded",
		"path", path, "certs", len(repo.Certs), "roas", len(repo.ROAs))
	return repo, nil
}
