package prefix2org

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"

	"github.com/prefix2org/prefix2org/internal/intern"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// Dataset snapshots come in two formats sharing one Load entry point:
//
//   - Line-oriented JSON (this file): one stats header, then cluster
//     lines, then record lines. The public release shape of the mapping
//     (Listing 1 rows plus the cluster index) — streamable, greppable,
//     and the compatibility format every version can read.
//   - Binary v2 (serialize_binary_v2.go): the same data plus the frozen
//     LPM index behind a magic header — the serve-path format the store
//     reloader and snapshot export prefer, opened in place because
//     nothing is re-parsed or re-frozen.
//
// Load sniffs the magic and dispatches, so consumers (p2o-whoisd,
// p2o-httpd, p2o-diff) accept either transparently. A v1 binary file
// (serialize_binary.go, write-only) is refused by name.

type snapshotStats struct {
	Kind  string `json:"kind"` // "stats"
	Stats Stats  `json:"stats"`
}

type snapshotCluster struct {
	Kind       string   `json:"kind"` // "cluster"
	ID         string   `json:"id"`
	BaseName   string   `json:"baseName"`
	OwnerNames []string `json:"ownerNames"`
	Prefixes   []string `json:"prefixes"`
}

type snapshotRecord struct {
	Kind string `json:"kind"` // "record"
	// Listing 1 fields.
	Prefix             string   `json:"prefix"`
	RIR                string   `json:"RIR"`
	DirectOwner        string   `json:"Direct Owner (DO)"`
	DOPrefix           string   `json:"DO Prefix"`
	DOType             string   `json:"DO Allocation Type"`
	DelegatedCustomers []string `json:"Delegated Customer(s) (DC)"`
	DCPrefixes         []string `json:"DC Prefix(es)"`
	DCTypes            []string `json:"DC Allocation Type(s)"`
	BaseName           string   `json:"Base name"`
	RPKICert           string   `json:"RPKI Certificate,omitempty"`
	OriginASN          uint32   `json:"Origin ASN,omitempty"`
	ASNCluster         string   `json:"Origin ASN Cluster,omitempty"`
	FinalCluster       string   `json:"Final Cluster"`
}

// Save writes the dataset snapshot in the JSON-lines format.
func (d *Dataset) Save(w io.Writer) error {
	defer obs.Time(mCodecSeconds.saveJSON)()
	d.MaterializeAll()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotStats{Kind: "stats", Stats: d.Stats}); err != nil {
		return fmt.Errorf("prefix2org: encode stats: %w", err)
	}
	for _, c := range d.Clusters {
		sc := snapshotCluster{Kind: "cluster", ID: c.ID, BaseName: c.BaseName, OwnerNames: c.OwnerNames}
		for _, p := range c.Prefixes {
			sc.Prefixes = append(sc.Prefixes, p.String())
		}
		if err := enc.Encode(sc); err != nil {
			return fmt.Errorf("prefix2org: encode cluster %s: %w", c.ID, err)
		}
	}
	for i := range d.Records {
		r := &d.Records[i]
		sr := snapshotRecord{
			Kind: "record", Prefix: r.Prefix.String(), RIR: r.RIR,
			DirectOwner: r.DirectOwner, DOPrefix: r.DOPrefix.String(), DOType: r.DOType,
			DelegatedCustomers: r.DelegatedCustomers, DCTypes: r.DCTypes,
			BaseName: r.BaseName, RPKICert: r.RPKICert,
			OriginASN: r.OriginASN, ASNCluster: r.ASNCluster, FinalCluster: r.FinalCluster,
		}
		for _, p := range r.DCPrefixes {
			sr.DCPrefixes = append(sr.DCPrefixes, p.String())
		}
		if err := enc.Encode(sr); err != nil {
			return fmt.Errorf("prefix2org: encode record %s: %w", r.Prefix, err)
		}
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save or SaveBinary (v2) — the format
// is sniffed from the leading bytes: v2, then the v1 magic, which is
// refused by name, then JSON — and rebuilds all indexes, including the
// frozen longest-prefix-match index behind LookupAddr. Load always
// returns an eager Dataset; OpenSnapshotFile is the in-place (lazy,
// view-backed) entry point for v2 snapshots.
func Load(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if head, err := br.Peek(len(binaryMagicV2)); err == nil {
		switch {
		case bytes.Equal(head, binaryMagicV2[:]):
			data, err := io.ReadAll(br)
			if err != nil {
				return nil, fmt.Errorf("prefix2org: read binary snapshot: %w", err)
			}
			return loadBinaryV2(data)
		case bytes.Equal(head, binaryMagic[:]):
			return nil, errSnapshotV1
		}
	}
	return loadJSON(br)
}

func loadJSON(r io.Reader) (*Dataset, error) {
	defer obs.Time(mCodecSeconds.loadJSON)()
	d := &Dataset{}
	// Most snapshot strings repeat across hundreds of thousands of
	// lines (registry zones, allocation types, owner and cluster
	// names); interning collapses each to a single allocation.
	strs := intern.New(1 << 12)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
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
			return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
		}
		switch kind.Kind {
		case "stats":
			var ss snapshotStats
			if err := json.Unmarshal(line, &ss); err != nil {
				return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
			}
			d.Stats = ss.Stats
		case "cluster":
			var scl snapshotCluster
			if err := json.Unmarshal(line, &scl); err != nil {
				return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
			}
			c := &Cluster{ID: strs.Intern(scl.ID), BaseName: strs.Intern(scl.BaseName), OwnerNames: internAll(strs, scl.OwnerNames)}
			for _, s := range scl.Prefixes {
				p, err := netip.ParsePrefix(s)
				if err != nil {
					return nil, fmt.Errorf("prefix2org: snapshot line %d: cluster prefix %q: %w", lineNo, s, err)
				}
				c.Prefixes = append(c.Prefixes, p.Masked())
			}
			d.Clusters = append(d.Clusters, c)
		case "record":
			var sr snapshotRecord
			if err := json.Unmarshal(line, &sr); err != nil {
				return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
			}
			rec := Record{
				RIR: strs.Intern(sr.RIR), DirectOwner: strs.Intern(sr.DirectOwner), DOType: strs.Intern(sr.DOType),
				DelegatedCustomers: internAll(strs, sr.DelegatedCustomers), DCTypes: internAll(strs, sr.DCTypes),
				BaseName: strs.Intern(sr.BaseName), RPKICert: strs.Intern(sr.RPKICert),
				OriginASN: sr.OriginASN, ASNCluster: strs.Intern(sr.ASNCluster), FinalCluster: strs.Intern(sr.FinalCluster),
			}
			var err error
			if rec.Prefix, err = parseSnapshotPrefix(sr.Prefix); err != nil {
				return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
			}
			if rec.DOPrefix, err = parseSnapshotPrefix(sr.DOPrefix); err != nil {
				return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
			}
			for _, s := range sr.DCPrefixes {
				p, err := parseSnapshotPrefix(s)
				if err != nil {
					return nil, fmt.Errorf("prefix2org: snapshot line %d: %w", lineNo, err)
				}
				rec.DCPrefixes = append(rec.DCPrefixes, p)
			}
			d.Records = append(d.Records, rec)
		default:
			return nil, fmt.Errorf("prefix2org: snapshot line %d: unknown kind %q", lineNo, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prefix2org: snapshot scan: %w", err)
	}
	d.indexClusters()
	d.freezeIndex()
	return d, nil
}

func internAll(t *intern.Table, ss []string) []string {
	for i, s := range ss {
		ss[i] = t.Intern(s)
	}
	return ss
}

func parseSnapshotPrefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("prefix %q: %w", s, err)
	}
	return p.Masked(), nil
}

// SaveFile writes the snapshot to path, choosing the format by
// extension: `.json` and `.jsonl` get the JSON-lines compatibility
// format, anything else the binary serve-path format. Load reads both
// regardless of name. A regular file at path is replaced atomically.
func (d *Dataset) SaveFile(path string) error {
	if !jsonSnapshotPath(path) {
		return d.SaveBinaryFile(path)
	}
	return replaceFile(path, d.Save)
}

// replaceFile writes path with save so that a reader of path — a daemon
// serving it from a mapping, a reload reading it — sees the old file or
// the new one, never a truncated or half-written one: save fills a new
// file beside path, which is then renamed over it. When path exists and
// is not a regular file (/dev/stdout, a FIFO), save writes path itself.
// The new file is removed on any error.
func replaceFile(path string, save func(io.Writer) error) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("prefix2org: create %s: %w", path, err)
		}
		return errors.Join(save(f), f.Close())
	}
	f, err := createBeside(path)
	if err != nil {
		return fmt.Errorf("prefix2org: create %s: %w", path, err)
	}
	err = errors.Join(save(f), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// createBeside creates a new, uniquely named file in path's directory
// with os.Create's permissions (0666 before umask; os.CreateTemp would
// give 0600).
func createBeside(path string) (*os.File, error) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), i)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !os.IsExist(err) {
			return f, err
		}
	}
}

// LoadFile reads a snapshot from path. The context is honored before
// the read starts.
func LoadFile(ctx context.Context, path string) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
