package bgp

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"

	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// MRT-style binary RIB snapshot format. The layout follows the spirit of
// MRT TABLE_DUMP_V2 (RFC 6396): a peer-index table up front, then one
// record per (prefix, peer) with the AS path. Integers are big-endian.
//
//	magic   "P2OMRT1\n"
//	u16     number of collectors
//	        per collector: u8 name length, name bytes
//	u16     number of peers
//	        per peer: u32 peer ASN, u16 collector index
//	u32     number of RIB entries
//	        per entry: u16 peer index, u8 family (4|6), u8 prefix bits,
//	                   prefix bytes (ceil(bits/8)),
//	                   u8 path length, u32 per ASN
var mrtMagic = []byte("P2OMRT1\n")

// WriteMRT serializes RIB entries (from any number of collectors).
func WriteMRT(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(mrtMagic); err != nil {
		return err
	}
	// Collector and peer tables.
	collIdx := map[string]int{}
	var colls []string
	type peerKey struct {
		asn  uint32
		coll string
	}
	peerIdx := map[peerKey]int{}
	var peers []peerKey
	for _, e := range entries {
		if _, ok := collIdx[e.Collector]; !ok {
			collIdx[e.Collector] = len(colls)
			colls = append(colls, e.Collector)
		}
		k := peerKey{e.PeerASN, e.Collector}
		if _, ok := peerIdx[k]; !ok {
			peerIdx[k] = len(peers)
			peers = append(peers, k)
		}
	}
	if len(colls) > 0xFFFF || len(peers) > 0xFFFF {
		return fmt.Errorf("bgp: mrt: too many collectors/peers")
	}
	writeU16 := func(v int) { binary.Write(bw, binary.BigEndian, uint16(v)) }
	writeU16(len(colls))
	for _, name := range colls {
		if len(name) > 255 {
			return fmt.Errorf("bgp: mrt: collector name too long: %q", name)
		}
		bw.WriteByte(byte(len(name)))
		bw.WriteString(name)
	}
	writeU16(len(peers))
	for _, pk := range peers {
		binary.Write(bw, binary.BigEndian, pk.asn)
		writeU16(collIdx[pk.coll])
	}
	binary.Write(bw, binary.BigEndian, uint32(len(entries)))
	for _, e := range entries {
		if len(e.ASPath) > 255 {
			return fmt.Errorf("bgp: mrt: AS path longer than 255 hops")
		}
		writeU16(peerIdx[peerKey{e.PeerASN, e.Collector}])
		bits := e.Prefix.Bits()
		nbytes := (bits + 7) / 8
		if e.Prefix.Addr().Is4() {
			bw.WriteByte(4)
			bw.WriteByte(byte(bits))
			a := e.Prefix.Addr().As4()
			bw.Write(a[:nbytes])
		} else {
			bw.WriteByte(6)
			bw.WriteByte(byte(bits))
			a := e.Prefix.Addr().As16()
			bw.Write(a[:nbytes])
		}
		bw.WriteByte(byte(len(e.ASPath)))
		for _, asn := range e.ASPath {
			binary.Write(bw, binary.BigEndian, asn)
		}
	}
	return bw.Flush()
}

// StreamMRT parses a snapshot written by WriteMRT, invoking yield once
// per RIB entry without materializing the entry slice — the path
// consumers like LoadDir use to aggregate straight into a Table. The
// yielded Entry's ASPath aliases a buffer reused for the next entry;
// consumers that retain it must copy.
func StreamMRT(r io.Reader, yield func(e Entry) error) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(mrtMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("bgp: mrt: read magic: %w", err)
	}
	if string(magic) != string(mrtMagic) {
		return fmt.Errorf("bgp: mrt: bad magic %q", magic)
	}
	// One scratch buffer for every fixed-width read: binary.Read
	// allocates per call, which dominated parsing profiles at a few
	// reads per RIB entry.
	var scratch [16]byte
	readU16 := func() (int, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return 0, err
		}
		return int(binary.BigEndian.Uint16(scratch[:2])), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(scratch[:4]), nil
	}
	nColls, err := readU16()
	if err != nil {
		return fmt.Errorf("bgp: mrt: collector count: %w", err)
	}
	colls := make([]string, nColls)
	for i := range colls {
		l, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("bgp: mrt: collector name length: %w", err)
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("bgp: mrt: collector name: %w", err)
		}
		colls[i] = string(name)
	}
	nPeers, err := readU16()
	if err != nil {
		return fmt.Errorf("bgp: mrt: peer count: %w", err)
	}
	type peerKey struct {
		asn  uint32
		coll string
	}
	peers := make([]peerKey, nPeers)
	for i := range peers {
		asn, err := readU32()
		if err != nil {
			return fmt.Errorf("bgp: mrt: peer asn: %w", err)
		}
		ci, err := readU16()
		if err != nil {
			return fmt.Errorf("bgp: mrt: peer collector: %w", err)
		}
		if ci >= len(colls) {
			return fmt.Errorf("bgp: mrt: peer references collector %d of %d", ci, len(colls))
		}
		peers[i] = peerKey{asn, colls[ci]}
	}
	nEntries, err := readU32()
	if err != nil {
		return fmt.Errorf("bgp: mrt: entry count: %w", err)
	}
	var pathBuf []uint32
	for i := uint32(0); i < nEntries; i++ {
		pi, err := readU16()
		if err != nil {
			return fmt.Errorf("bgp: mrt: entry %d peer: %w", i, err)
		}
		if pi >= len(peers) {
			return fmt.Errorf("bgp: mrt: entry %d references peer %d of %d", i, pi, len(peers))
		}
		fam, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("bgp: mrt: entry %d family: %w", i, err)
		}
		bits, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("bgp: mrt: entry %d bits: %w", i, err)
		}
		nbytes := (int(bits) + 7) / 8
		if nbytes > len(scratch) {
			return fmt.Errorf("bgp: mrt: entry %d: prefix length %d bits", i, bits)
		}
		buf := scratch[:nbytes]
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("bgp: mrt: entry %d prefix: %w", i, err)
		}
		var prefix netip.Prefix
		switch fam {
		case 4:
			if bits > 32 {
				return fmt.Errorf("bgp: mrt: entry %d: IPv4 bits %d", i, bits)
			}
			var a [4]byte
			copy(a[:], buf)
			prefix = netip.PrefixFrom(netip.AddrFrom4(a), int(bits)).Masked()
		case 6:
			if bits > 128 {
				return fmt.Errorf("bgp: mrt: entry %d: IPv6 bits %d", i, bits)
			}
			var a [16]byte
			copy(a[:], buf)
			prefix = netip.PrefixFrom(netip.AddrFrom16(a), int(bits)).Masked()
		default:
			return fmt.Errorf("bgp: mrt: entry %d: unknown family %d", i, fam)
		}
		plen, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("bgp: mrt: entry %d path length: %w", i, err)
		}
		pathBuf = pathBuf[:0]
		for j := 0; j < int(plen); j++ {
			v, err := readU32()
			if err != nil {
				return fmt.Errorf("bgp: mrt: entry %d path: %w", i, err)
			}
			pathBuf = append(pathBuf, v)
		}
		err = yield(Entry{
			Collector: peers[pi].coll,
			PeerASN:   peers[pi].asn,
			Prefix:    prefix,
			ASPath:    pathBuf,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SnapshotFile is the RIB dump's location inside a data directory.
const SnapshotFile = "bgp/rib.mrt"

// WriteDir writes the RIB snapshot under dir.
func WriteDir(dir string, entries []Entry) error {
	err := fsx.WriteFile(filepath.Join(dir, SnapshotFile), func(w io.Writer) error {
		return WriteMRT(w, entries)
	})
	if err != nil {
		return fmt.Errorf("bgp: %w", err)
	}
	return nil
}

// LoadDir reads the RIB snapshot under dir and aggregates it into a
// Table. The context is honored before the read starts: a canceled
// build never opens the file. The snapshot is streamed into the table's
// rows — no entry slice or AS-path arena is materialized, which matters
// on the delta-rebuild path where a changed RIB is re-read on every
// reload.
func LoadDir(ctx context.Context, dir string) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, SnapshotFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bgp: open %s: %w", path, err)
	}
	defer f.Close()
	var rows []row
	n := 0
	err = StreamMRT(f, func(e Entry) error {
		n++
		origin, ok := e.Origin()
		if !ok {
			return nil
		}
		// StreamMRT yields masked prefixes. A dump lists each
		// collector's entries by prefix, then peer, so appendRow holds
		// the rows to one per (prefix, origin) per collector. The
		// header's entry count is no measure of that, so the rows grow
		// by append.
		rows = appendRow(rows, rowOf(e.Prefix, origin))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := newTable(rows, n)
	reg := obs.Default()
	reg.Counter("bgp_mrt_entries_total").Add(int64(n))
	reg.Counter("bgp_prefixes_filtered_total").Add(int64(t.FilteredCount()))
	obs.Logger("bgp").Info("rib loaded",
		"path", path, "entries", n,
		"prefixes", t.Len(), "specificity_filtered", t.FilteredCount())
	return t, nil
}
