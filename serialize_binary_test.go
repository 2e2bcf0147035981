package prefix2org

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// datasetsEquivalent fails the test unless a and b carry the same
// records, clusters, and stats, and answer lookups identically.
func datasetsEquivalent(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Error("stats diverged")
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("records diverged")
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("clusters = %d, want %d", len(b.Clusters), len(a.Clusters))
	}
	for i := range a.Clusters {
		if !reflect.DeepEqual(a.Clusters[i], b.Clusters[i]) {
			t.Fatalf("cluster %d diverged:\n%+v\n%+v", i, a.Clusters[i], b.Clusters[i])
		}
	}
	for i := range a.Records {
		p := a.Records[i].Prefix
		ra, aok := a.LookupAddr(p.Addr())
		rb, bok := b.LookupAddr(p.Addr())
		if aok != bok || (aok && ra.Prefix != rb.Prefix) {
			t.Fatalf("LookupAddr(%s) diverged", p.Addr())
		}
		ca, aok := a.LookupCovering(p)
		cb, bok := b.LookupCovering(p)
		if aok != bok || (aok && ca.Prefix != cb.Prefix) {
			t.Fatalf("LookupCovering(%s) diverged", p)
		}
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var buf bytes.Buffer
	if err := ds.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, ds, back)
	if _, ok := back.ClusterOfOwner(ds.Records[0].DirectOwner); !ok {
		t.Error("cluster-by-owner broken after binary reload")
	}
}

// TestBinaryAndJSONLoadIdentical checks the two formats decode to
// byte-identical Datasets: loading a JSON snapshot and a binary
// snapshot of the same dataset, then re-saving both as JSON, must
// produce the same bytes.
func TestBinaryAndJSONLoadIdentical(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var jsonSnap, binSnap bytes.Buffer
	if err := ds.Save(&jsonSnap); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveBinary(&binSnap); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(bytes.NewReader(jsonSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(bytes.NewReader(binSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, fromJSON, fromBin)
	var reJSON, reBin bytes.Buffer
	if err := fromJSON.Save(&reJSON); err != nil {
		t.Fatal(err)
	}
	if err := fromBin.Save(&reBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reJSON.Bytes(), reBin.Bytes()) {
		t.Error("re-saved JSON differs between JSON-loaded and binary-loaded datasets")
	}
}

func TestBinarySnapshotDeterministic(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var a, b bytes.Buffer
	if err := ds.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("SaveBinary output is not deterministic")
	}
}

func TestSaveFilePicksFormatByExtension(t *testing.T) {
	_, ds := buildWorldDataset(t)
	dir := t.TempDir()
	binPath := filepath.Join(dir, "snapshot.p2o")
	jsonPath := filepath.Join(dir, "snapshot.jsonl")
	if err := ds.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{binPath, jsonPath} {
		back, err := LoadFile(context.Background(), path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", path, err)
		}
		if len(back.Records) != len(ds.Records) {
			t.Errorf("%s: records = %d, want %d", path, len(back.Records), len(ds.Records))
		}
	}
	// The extension picked the format: binary starts with the (v2)
	// magic, JSON with a stats line.
	for path, wantMagic := range map[string]bool{binPath: true, jsonPath: false} {
		back, err := readFilePrefix(path, len(binaryMagicV2))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Equal(back, binaryMagicV2[:]); got != wantMagic {
			t.Errorf("%s: magic = %v, want %v", path, got, wantMagic)
		}
	}
}

// TestBinarySnapshotRejectsForeignIndex splices the index of one
// dataset onto the records of another; Load must notice the mismatch.
func TestBinarySnapshotRejectsForeignIndex(t *testing.T) {
	_, ds := buildWorldDataset(t)
	other := &Dataset{Records: []Record{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}}}
	other.freezeIndex()

	var keep bytes.Buffer
	if err := ds.SaveBinaryV1(&keep); err != nil {
		t.Fatal(err)
	}
	spliced := replaceSection(t, keep.Bytes(), secIndex, other.idx.AppendBinary(nil))
	if _, err := Load(bytes.NewReader(spliced)); err == nil {
		t.Error("index of a different dataset accepted")
	}
}

// TestBinarySnapshotV1RoundTrip keeps the legacy writer honest: v1
// output still loads into an equivalent dataset.
func TestBinarySnapshotV1RoundTrip(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var buf bytes.Buffer
	if err := ds.SaveBinaryV1(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), binaryMagic[:]) {
		t.Fatal("v1 writer did not emit the v1 magic")
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, ds, back)
}

// TestParseSectionsV1Hardened pins the section walk's bounds checking:
// hostile lengths and framings error cleanly, with no panic and no
// length-driven allocation.
func TestParseSectionsV1Hardened(t *testing.T) {
	section := func(tag byte, payload []byte) []byte {
		return appendSection(nil, tag, payload)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"huge claimed length", append([]byte{secStats}, binary.AppendUvarint(nil, 1<<40)...)},
		{"length one past end", append(section(secStats, []byte("x")), func() []byte {
			s := section(secStrings, []byte("abc"))
			s[1]++ // claims 4 bytes, 3 remain
			return s
		}()...)},
		{"truncated varint", []byte{secStats, 0x80}},
		{"tag with no length", []byte{secStats}},
		{"duplicate section", append(section(secStats, nil), section(secStats, nil)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseSectionsV1(tc.body); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
	// And the happy path still parses.
	body := append(section(secStats, []byte("a")), section(secStrings, nil)...)
	secs, err := parseSectionsV1(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(secs[secStats]) != "a" || secs[secStrings] == nil {
		t.Errorf("sections misparsed: %v", secs)
	}
}

// replaceSection rewrites the payload of one section in a binary
// snapshot, re-framing the file around it.
func replaceSection(t *testing.T, data []byte, tag byte, payload []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:len(binaryMagic)]...)
	rest := data[len(binaryMagic):]
	for len(rest) > 0 {
		secTag := rest[0]
		n, w := binaryUvarint(t, rest[1:])
		body := rest[1+w : 1+w+int(n)]
		if secTag == tag {
			body = payload
		}
		out = appendSection(out, secTag, body)
		rest = rest[1+w+int(n):]
	}
	return out
}

func binaryUvarint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	v, n := binary.Uvarint(b)
	if n <= 0 {
		t.Fatal("bad varint in snapshot under test")
	}
	return v, n
}

func readFilePrefix(path string, n int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) > n {
		data = data[:n]
	}
	return data, nil
}
