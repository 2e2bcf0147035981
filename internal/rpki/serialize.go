package rpki

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"slices"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/intern"
	"github.com/prefix2org/prefix2org/internal/jsonl"
	"github.com/prefix2org/prefix2org/internal/netx"
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
// the repository. A line in the exact shape Write emits is read straight
// from its bytes; any other line is encoding/json's.
func Read(rd io.Reader) (*Repository, error) {
	r := reader{repo: NewRepository(), strs: intern.New(0)}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || r.scanLine(line) {
			continue
		}
		if err := r.decodeLine(line); err != nil {
			return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rpki: scan: %w", err)
	}
	if err := r.repo.Build(); err != nil {
		return nil, err
	}
	return r.repo, nil
}

// reader is the state of one Read.
type reader struct {
	repo *Repository
	// strs shares the strings a snapshot repeats: a ROA names its
	// certificate's SKI, a certificate its issuer's, and every object
	// one of a handful of registries.
	strs *intern.Table
	res  [][]byte // scratch: the resource strings of the line being scanned
}

// scanLine adds the object on line to the repository when the line has
// exactly the shape Write emits, reading it in place. false means the
// line is something else — not that it is wrong — and nothing was added:
// decodeLine decides.
func (r *reader) scanLine(line []byte) bool {
	l := jsonl.Open(line)
	switch string(l.String("kind")) {
	case "cer":
		ski := l.String("ski")
		var aki []byte
		if l.Next("aki") {
			aki = l.String("aki")
		}
		subject, registry := l.String("subject"), l.String("registry")
		r.res = l.Strings("resources", r.res[:0])
		ta := l.Next("trustAnchor") && l.Bool("trustAnchor")
		if !l.Close() {
			return false
		}
		c := Certificate{TrustAnchor: ta}
		if len(r.res) > 0 {
			c.Resources = make([]netip.Prefix, len(r.res))
		}
		for i, s := range r.res {
			p, ok := netx.ParsePrefixBytes(s)
			if !ok {
				return false
			}
			c.Resources[i] = p.Masked()
		}
		c.SKI, c.AKI, c.Subject = r.strs.Bytes(ski), r.strs.Bytes(aki), string(subject)
		c.Registry = alloc.Registry(r.strs.Bytes(registry))
		r.repo.AddCert(c)
		return true
	case "roa":
		prefix := l.String("prefix")
		maxLength := l.Uint("maxLength", math.MaxInt)
		asn := l.Uint("asn", math.MaxUint32)
		ski := l.String("certSKI")
		p, ok := netx.ParsePrefixBytes(prefix)
		if !l.Close() || !ok {
			return false
		}
		r.repo.AddROA(ROA{Prefix: p.Masked(), MaxLength: int(maxLength), ASN: uint32(asn), CertSKI: r.strs.Bytes(ski)})
		return true
	}
	return false
}

// decodeLine adds the object on line to the repository through
// encoding/json: once for the line's kind, once for that kind's members.
func (r *reader) decodeLine(line []byte) error {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(line, &kind); err != nil {
		return err
	}
	switch kind.Kind {
	case "cer":
		var cj certJSON
		if err := json.Unmarshal(line, &cj); err != nil {
			return err
		}
		c := Certificate{SKI: cj.SKI, AKI: cj.AKI, Subject: cj.Subject, Registry: alloc.Registry(cj.Registry), TrustAnchor: cj.TA}
		for _, s := range cj.Resources {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return fmt.Errorf("resource %q: %w", s, err)
			}
			c.Resources = append(c.Resources, p.Masked())
		}
		r.repo.AddCert(c)
	case "roa":
		var rj roaJSON
		if err := json.Unmarshal(line, &rj); err != nil {
			return err
		}
		p, err := netip.ParsePrefix(rj.Prefix)
		if err != nil {
			return fmt.Errorf("prefix %q: %w", rj.Prefix, err)
		}
		r.repo.AddROA(ROA{Prefix: p.Masked(), MaxLength: rj.MaxLength, ASN: rj.ASN, CertSKI: rj.CertSKI})
	default:
		return fmt.Errorf("unknown object kind %q", kind.Kind)
	}
	return nil
}

// SnapshotFile is the snapshot's location inside a data directory.
const SnapshotFile = "rpki/snapshot.jsonl"

// WriteDir writes the repository snapshot under dir.
func (r *Repository) WriteDir(dir string) error {
	if err := fsx.WriteFile(filepath.Join(dir, SnapshotFile), r.Write); err != nil {
		return fmt.Errorf("rpki: %w", err)
	}
	return nil
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
