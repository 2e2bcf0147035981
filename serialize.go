package prefix2org

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"

	"github.com/prefix2org/prefix2org/internal/fsx"
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
// p2o-httpd, p2o-diff) accept either transparently, and every read
// returns the same shape: a view over v2 bytes. A JSON snapshot is
// encoded to them once. A v1 binary file (serialize_binary.go,
// write-only) is refused by name.

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
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotStats{Kind: "stats", Stats: d.Stats}); err != nil {
		return fmt.Errorf("prefix2org: encode stats: %w", err)
	}
	for i := range d.NumClusters() {
		c := d.ClusterAt(i)
		sc := snapshotCluster{Kind: "cluster", ID: c.ID, BaseName: c.BaseName, OwnerNames: c.OwnerNames}
		for _, p := range c.Prefixes {
			sc.Prefixes = append(sc.Prefixes, p.String())
		}
		if err := enc.Encode(sc); err != nil {
			return fmt.Errorf("prefix2org: encode cluster %s: %w", c.ID, err)
		}
	}
	for i := range d.NumRecords() {
		r := d.RecordAt(i)
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
// refused by name, then JSON — and returns it as a read Dataset
// (Lazy() == true) over v2 bytes. A JSON snapshot streams through the
// line scanner, is encoded once with the v2 writer, and then passes the
// same validation a v2 file does.
func Load(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	switch head, _ := br.Peek(len(binaryMagicV2)); {
	case hasMagic(head, binaryMagic):
		return nil, errSnapshotV1
	case !hasMagic(head, binaryMagicV2):
		return loadJSON(br)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("prefix2org: read binary snapshot: %w", err)
	}
	return openViewBytes(data, nil)
}

func loadJSON(r io.Reader) (*Dataset, error) {
	defer obs.Time(mCodecSeconds.loadJSON)()
	// d is a built Dataset in all but name, alive only until the v2
	// writer has encoded it.
	d := &Dataset{}
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
			c := &Cluster{ID: scl.ID, BaseName: scl.BaseName, OwnerNames: scl.OwnerNames}
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
				RIR: sr.RIR, DirectOwner: sr.DirectOwner, DOType: sr.DOType,
				DelegatedCustomers: sr.DelegatedCustomers, DCTypes: sr.DCTypes,
				BaseName: sr.BaseName, RPKICert: sr.RPKICert,
				OriginASN: sr.OriginASN, ASNCluster: sr.ASNCluster, FinalCluster: sr.FinalCluster,
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
	data, err := d.encodeV2()
	if err != nil {
		return nil, err
	}
	return openViewBytes(data, nil)
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
// regardless of name. A regular file at path is replaced atomically
// (fsx.WriteFile).
func (d *Dataset) SaveFile(path string) error {
	if !jsonSnapshotPath(path) {
		return d.SaveBinaryFile(path)
	}
	return saveFile(path, d.Save)
}

func saveFile(path string, save func(io.Writer) error) error {
	if err := fsx.WriteFile(path, save); err != nil {
		return fmt.Errorf("prefix2org: %w", err)
	}
	return nil
}

// LoadFile reads a snapshot from path into memory and returns it as a
// read Dataset: OpenSnapshotFile without the mapping. The context is
// honored before the read starts.
func LoadFile(ctx context.Context, path string) (*Dataset, error) {
	return OpenSnapshotFile(ctx, path, OpenOptions{})
}
