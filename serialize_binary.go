package prefix2org

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"

	"github.com/prefix2org/prefix2org/internal/lpm"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// This file implements format version 1 of the binary snapshot: the
// same Dataset the JSON-lines snapshot carries, plus the frozen LPM
// index, decoded into heap objects on load. Version 2 — the current
// write format, implemented in serialize_binary_v2.go — keeps the same
// data in fixed-width, offset-based sections that are served in place
// from the file bytes. Load sniffs the version byte and reads either;
// SaveBinary writes v2, SaveBinaryV1 remains for downgrade paths and
// compatibility tests.
//
// The v1 file is the 8-byte magic (the last byte is the format
// version) followed by tagged, length-prefixed sections; readers skip
// sections with unknown tags, so later versions can add data without
// breaking older readers.
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

const (
	secStats    = 1
	secStrings  = 2
	secClusters = 3
	secRecords  = 4
	secIndex    = 5
)

var mCodecSeconds = struct {
	saveJSON, loadJSON, saveBin, loadBin *obs.Histogram
}{
	saveJSON: obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "save", "format", "json"), obs.DefBuckets),
	loadJSON: obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "load", "format", "json"), obs.DefBuckets),
	saveBin:  obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "save", "format", "binary"), obs.DefBuckets),
	loadBin:  obs.Default().Histogram(obs.Label("snapshot_codec_seconds", "op", "load", "format", "binary"), obs.DefBuckets),
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
// including the frozen LPM index so Load skips the freeze step. New
// snapshots should use SaveBinary (v2, served in place); v1 remains
// the downgrade path for older readers.
func (d *Dataset) SaveBinaryV1(w io.Writer) error {
	defer obs.Time(mCodecSeconds.saveBin)()
	d.MaterializeAll()
	stats, err := json.Marshal(d.Stats)
	if err != nil {
		return fmt.Errorf("prefix2org: encode stats: %w", err)
	}
	strs := newStringTable(0)

	var clusters []byte
	clusters = binary.AppendUvarint(clusters, uint64(len(d.Clusters)))
	for _, c := range d.Clusters {
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
	records = binary.AppendUvarint(records, uint64(len(d.Records)))
	for i := range d.Records {
		r := &d.Records[i]
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
		items := make([]lpm.Item, len(d.Records))
		for i := range d.Records {
			items[i] = lpm.Item{Prefix: d.Records[i].Prefix, Val: int32(i)}
		}
		ix = lpm.Freeze(items)
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

// cursor is a bounds-checked reader over a section payload.
type cursor struct {
	b   []byte
	sec string
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("prefix2org: binary snapshot: %s: bad varint", c.sec)
	}
	c.b = c.b[n:]
	return v, nil
}

// count reads a uvarint element count and sanity-bounds it by the
// bytes remaining, so a corrupt length cannot drive a huge allocation.
func (c *cursor) count(minElemBytes int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(len(c.b)/minElemBytes) {
		return 0, fmt.Errorf("prefix2org: binary snapshot: %s: count %d exceeds section size", c.sec, v)
	}
	return int(v), nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(c.b) {
		return nil, fmt.Errorf("prefix2org: binary snapshot: %s: truncated", c.sec)
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b, nil
}

func (c *cursor) str(tab []string) (string, error) {
	id, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if id >= uint64(len(tab)) {
		return "", fmt.Errorf("prefix2org: binary snapshot: %s: string ref %d out of range", c.sec, id)
	}
	return tab[id], nil
}

func (c *cursor) prefix() (netip.Prefix, error) {
	flag, err := c.bytes(1)
	if err != nil {
		return netip.Prefix{}, err
	}
	var a netip.Addr
	var maxBits int
	switch flag[0] {
	case 0:
		return netip.Prefix{}, nil
	case 1:
		b, err := c.bytes(1 + 4)
		if err != nil {
			return netip.Prefix{}, err
		}
		a, maxBits = netip.AddrFrom4([4]byte(b[1:])), 32
		flag = b
	case 2:
		b, err := c.bytes(1 + 16)
		if err != nil {
			return netip.Prefix{}, err
		}
		a, maxBits = netip.AddrFrom16([16]byte(b[1:])), 128
		flag = b
	default:
		return netip.Prefix{}, fmt.Errorf("prefix2org: binary snapshot: %s: bad prefix flag %d", c.sec, flag[0])
	}
	bits := int(flag[0])
	if bits > maxBits {
		return netip.Prefix{}, fmt.Errorf("prefix2org: binary snapshot: %s: prefix length %d out of range", c.sec, bits)
	}
	p := netip.PrefixFrom(a, bits)
	if p != p.Masked() {
		return netip.Prefix{}, fmt.Errorf("prefix2org: binary snapshot: %s: prefix %s has host bits set", c.sec, p)
	}
	return p, nil
}

// parseSectionsV1 walks the tagged, uvarint-length-prefixed section
// stream that follows the v1 magic. Every claimed length is checked
// against the bytes actually remaining *after* the tag and varint have
// been consumed, before any slicing, so a corrupt or hostile length
// can neither panic nor drive an allocation.
func parseSectionsV1(data []byte) (map[byte][]byte, error) {
	secs := map[byte][]byte{}
	for len(data) > 0 {
		tag := data[0]
		n, w := binary.Uvarint(data[1:])
		if w <= 0 {
			return nil, fmt.Errorf("prefix2org: binary snapshot: section %d: bad length varint", tag)
		}
		body := data[1+w:]
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("prefix2org: binary snapshot: section %d: length %d exceeds %d remaining bytes", tag, n, len(body))
		}
		if _, dup := secs[tag]; dup {
			return nil, fmt.Errorf("prefix2org: binary snapshot: duplicate section %d", tag)
		}
		secs[tag] = body[:n:n]
		data = body[n:]
	}
	return secs, nil
}

// loadBinary decodes a full v1 binary snapshot (magic included) into a
// ready-to-serve Dataset: the persisted LPM index is installed
// directly, skipping the freeze.
func loadBinary(data []byte) (*Dataset, error) {
	defer obs.Time(mCodecSeconds.loadBin)()
	secs, err := parseSectionsV1(data[len(binaryMagic):])
	if err != nil {
		return nil, err
	}
	for _, tag := range []byte{secStats, secStrings, secClusters, secRecords, secIndex} {
		if _, ok := secs[tag]; !ok {
			return nil, fmt.Errorf("prefix2org: binary snapshot: missing section %d", tag)
		}
	}

	d := &Dataset{}
	if err := json.Unmarshal(secs[secStats], &d.Stats); err != nil {
		return nil, fmt.Errorf("prefix2org: binary snapshot: stats: %w", err)
	}

	cur := cursor{b: secs[secStrings], sec: "strings"}
	nStr, err := cur.count(1)
	if err != nil {
		return nil, err
	}
	if nStr == 0 {
		return nil, fmt.Errorf("prefix2org: binary snapshot: strings: empty table")
	}
	tab := make([]string, nStr)
	for i := range tab {
		n, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := cur.bytes(int(n))
		if err != nil {
			return nil, err
		}
		tab[i] = string(b)
	}
	if tab[0] != "" {
		return nil, fmt.Errorf("prefix2org: binary snapshot: strings: entry 0 is %q, want empty", tab[0])
	}

	cur = cursor{b: secs[secClusters], sec: "clusters"}
	nClusters, err := cur.count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nClusters; i++ {
		c := &Cluster{}
		if c.ID, err = cur.str(tab); err != nil {
			return nil, err
		}
		if c.BaseName, err = cur.str(tab); err != nil {
			return nil, err
		}
		nOwners, err := cur.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nOwners; j++ {
			o, err := cur.str(tab)
			if err != nil {
				return nil, err
			}
			c.OwnerNames = append(c.OwnerNames, o)
		}
		nPrefixes, err := cur.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nPrefixes; j++ {
			p, err := cur.prefix()
			if err != nil {
				return nil, err
			}
			c.Prefixes = append(c.Prefixes, p)
		}
		d.Clusters = append(d.Clusters, c)
	}
	d.indexClusters()

	cur = cursor{b: secs[secRecords], sec: "records"}
	nRecords, err := cur.count(8)
	if err != nil {
		return nil, err
	}
	d.Records = make([]Record, 0, nRecords)
	for i := 0; i < nRecords; i++ {
		var r Record
		if r.Prefix, err = cur.prefix(); err != nil {
			return nil, err
		}
		if r.RIR, err = cur.str(tab); err != nil {
			return nil, err
		}
		if r.DirectOwner, err = cur.str(tab); err != nil {
			return nil, err
		}
		if r.DOPrefix, err = cur.prefix(); err != nil {
			return nil, err
		}
		if r.DOType, err = cur.str(tab); err != nil {
			return nil, err
		}
		nDC, err := cur.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nDC; j++ {
			s, err := cur.str(tab)
			if err != nil {
				return nil, err
			}
			r.DelegatedCustomers = append(r.DelegatedCustomers, s)
		}
		nDCP, err := cur.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nDCP; j++ {
			p, err := cur.prefix()
			if err != nil {
				return nil, err
			}
			r.DCPrefixes = append(r.DCPrefixes, p)
		}
		nDCT, err := cur.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nDCT; j++ {
			s, err := cur.str(tab)
			if err != nil {
				return nil, err
			}
			r.DCTypes = append(r.DCTypes, s)
		}
		if r.BaseName, err = cur.str(tab); err != nil {
			return nil, err
		}
		if r.RPKICert, err = cur.str(tab); err != nil {
			return nil, err
		}
		asn, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if asn > 1<<32-1 {
			return nil, fmt.Errorf("prefix2org: binary snapshot: records: origin ASN %d out of range", asn)
		}
		r.OriginASN = uint32(asn)
		if r.ASNCluster, err = cur.str(tab); err != nil {
			return nil, err
		}
		if r.FinalCluster, err = cur.str(tab); err != nil {
			return nil, err
		}
		d.Records = append(d.Records, r)
	}

	ix, err := lpm.Decode(secs[secIndex])
	if err != nil {
		return nil, fmt.Errorf("prefix2org: binary snapshot: %w", err)
	}
	if ix.Len() > len(d.Records) {
		return nil, fmt.Errorf("prefix2org: binary snapshot: index has %d entries for %d records", ix.Len(), len(d.Records))
	}
	bad := false
	ix.Walk(func(p netip.Prefix, val int32) bool {
		if val < 0 || int(val) >= len(d.Records) || d.Records[val].Prefix != p {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return nil, fmt.Errorf("prefix2org: binary snapshot: index does not match records")
	}
	d.idx = ix
	return d, nil
}

// SaveBinaryFile writes a binary snapshot to path.
func (d *Dataset) SaveBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prefix2org: create %s: %w", path, err)
	}
	werr := d.SaveBinary(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// jsonSnapshotPath reports whether path asks for the JSON-lines format
// by extension.
func jsonSnapshotPath(path string) bool {
	return strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".jsonl")
}
