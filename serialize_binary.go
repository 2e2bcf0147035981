package prefix2org

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"

	"github.com/prefix2org/prefix2org/internal/obs"
)

// This file implements the writer of format version 1 of the binary
// snapshot: the same Dataset the JSON-lines snapshot carries, plus the
// frozen LPM index. Version 2 — the current format, implemented in
// serialize_binary_v2.go — keeps the same data in fixed-width,
// offset-based sections that are served in place from the file bytes.
// v1 is write-only: Load recognizes its magic only to refuse it by name
// (errSnapshotV1).
//
// The v1 file is the 8-byte magic (the last byte is the format
// version) followed by tagged, length-prefixed sections.
//
// Section payloads:
//
//	stats    — the Stats struct as a JSON blob (field-addition safe).
//	strings  — interned string table: uvarint count, then per string
//	           uvarint byte length + bytes. Entry 0 is always "".
//	clusters — uvarint count, then per cluster: ID ref, BaseName ref,
//	           OwnerNames (uvarint count + refs), Prefixes (uvarint
//	           count + wire prefixes).
//	records  — uvarint count, then per record the Listing 1 fields in
//	           declaration order; strings as table refs, prefixes in
//	           wire form, OriginASN as a uvarint.
//	index    — the frozen lpm.Index in its own binary form.
//
// A string ref is a uvarint index into the strings section. A wire
// prefix is one flag byte (0 invalid, 1 IPv4, 2 IPv6) followed, when
// valid, by a length byte and the 4- or 16-byte network address.
var binaryMagic = [8]byte{'P', '2', 'O', 'S', 'N', 'A', 'P', 1}

// errSnapshotV1 is what every reader returns for a v1 file.
var errSnapshotV1 = errors.New("prefix2org: P2OSNAP v1 snapshots are no longer read; re-export with SaveBinary")

const (
	secStats    = 1
	secStrings  = 2
	secClusters = 3
	secRecords  = 4
	secIndex    = 5
)

var mCodecSeconds = struct {
	saveJSON, loadJSON, saveBin *obs.Histogram
}{
	saveJSON: obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "save", "format", "json"), obs.DefBuckets),
	loadJSON: obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "load", "format", "json"), obs.DefBuckets),
	saveBin:  obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "save", "format", "binary"), obs.DefBuckets),
}

// stringTable assigns dense IDs to strings in first-reference order,
// which makes the encoded table — and therefore the whole snapshot —
// deterministic for a given Dataset.
type stringTable struct {
	ids map[string]uint64
	tab []string
}

// newStringTable returns a table holding "" as entry 0, with room for
// about sizeHint more strings.
func newStringTable(sizeHint int) *stringTable {
	t := &stringTable{ids: make(map[string]uint64, sizeHint+1), tab: make([]string, 1, sizeHint+1)}
	t.ids[""] = 0
	return t
}

func (t *stringTable) ref(buf []byte, s string) []byte {
	id, ok := t.ids[s]
	if !ok {
		id = uint64(len(t.tab))
		t.ids[s] = id
		t.tab = append(t.tab, s)
	}
	return binary.AppendUvarint(buf, id)
}

func appendWirePrefix(buf []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(buf, 0)
	}
	if a := p.Addr(); a.Is4() {
		b := a.As4()
		buf = append(buf, 1, uint8(p.Bits()))
		return append(buf, b[:]...)
	}
	b := p.Addr().As16()
	buf = append(buf, 2, uint8(p.Bits()))
	return append(buf, b[:]...)
}

func appendSection(buf []byte, tag byte, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// SaveBinaryV1 writes the dataset in the legacy v1 binary layout,
// including the frozen LPM index. Nothing in this module reads v1 any
// more (Load refuses it); the writer is kept only because p2obench
// times it as prefix2org.save_v1_s, and goes when that metric does.
// New snapshots use SaveBinary (v2, served in place).
func (d *Dataset) SaveBinaryV1(w io.Writer) error {
	defer obs.Time(mCodecSeconds.saveBin)()
	stats, err := json.Marshal(d.Stats)
	if err != nil {
		return fmt.Errorf("prefix2org: encode stats: %w", err)
	}
	strs := newStringTable(0)

	var clusters []byte
	clusters = binary.AppendUvarint(clusters, uint64(d.NumClusters()))
	for i := range d.NumClusters() {
		c := d.ClusterAt(i)
		clusters = strs.ref(clusters, c.ID)
		clusters = strs.ref(clusters, c.BaseName)
		clusters = binary.AppendUvarint(clusters, uint64(len(c.OwnerNames)))
		for _, o := range c.OwnerNames {
			clusters = strs.ref(clusters, o)
		}
		clusters = binary.AppendUvarint(clusters, uint64(len(c.Prefixes)))
		for _, p := range c.Prefixes {
			clusters = appendWirePrefix(clusters, p)
		}
	}

	var records []byte
	records = binary.AppendUvarint(records, uint64(d.NumRecords()))
	for i := range d.NumRecords() {
		r := d.RecordAt(i)
		records = appendWirePrefix(records, r.Prefix)
		records = strs.ref(records, r.RIR)
		records = strs.ref(records, r.DirectOwner)
		records = appendWirePrefix(records, r.DOPrefix)
		records = strs.ref(records, r.DOType)
		records = binary.AppendUvarint(records, uint64(len(r.DelegatedCustomers)))
		for _, s := range r.DelegatedCustomers {
			records = strs.ref(records, s)
		}
		records = binary.AppendUvarint(records, uint64(len(r.DCPrefixes)))
		for _, p := range r.DCPrefixes {
			records = appendWirePrefix(records, p)
		}
		records = binary.AppendUvarint(records, uint64(len(r.DCTypes)))
		for _, s := range r.DCTypes {
			records = strs.ref(records, s)
		}
		records = strs.ref(records, r.BaseName)
		records = strs.ref(records, r.RPKICert)
		records = binary.AppendUvarint(records, uint64(r.OriginASN))
		records = strs.ref(records, r.ASNCluster)
		records = strs.ref(records, r.FinalCluster)
	}

	var table []byte
	table = binary.AppendUvarint(table, uint64(len(strs.tab)))
	for _, s := range strs.tab {
		table = binary.AppendUvarint(table, uint64(len(s)))
		table = append(table, s...)
	}

	ix := d.idx
	if ix == nil {
		ix = freezeIndex(d.Records)
	}
	index := ix.AppendBinary(nil)

	out := make([]byte, 0, len(binaryMagic)+len(stats)+len(table)+len(clusters)+len(records)+len(index)+5*16)
	out = append(out, binaryMagic[:]...)
	out = appendSection(out, secStats, stats)
	out = appendSection(out, secStrings, table)
	out = appendSection(out, secClusters, clusters)
	out = appendSection(out, secRecords, records)
	out = appendSection(out, secIndex, index)
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("prefix2org: write binary snapshot: %w", err)
	}
	return nil
}

// SaveBinaryFile writes a binary snapshot to path, replacing a regular
// file there atomically (fsx.WriteFile).
func (d *Dataset) SaveBinaryFile(path string) error {
	return saveFile(path, d.SaveBinary)
}

// jsonSnapshotPath reports whether path asks for the JSON-lines format
// by extension.
func jsonSnapshotPath(path string) bool {
	return strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".jsonl")
}
