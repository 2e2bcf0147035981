package prefix2org

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	lazyEquivalent(t, ds, back)
	if _, ok := back.ClusterOfOwner(ds.Records[0].DirectOwner); !ok {
		t.Error("cluster-by-owner broken after binary reload")
	}
}

// TestBinaryAndJSONLoadIdentical checks the two formats read back to
// the same Dataset: loading a JSON snapshot and a binary snapshot of
// the same dataset, then re-saving both as JSON, must produce the same
// bytes.
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
	lazyEquivalent(t, fromJSON, fromBin)
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
		if back.NumRecords() != len(ds.Records) {
			t.Errorf("%s: records = %d, want %d", path, back.NumRecords(), len(ds.Records))
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

// TestV1SnapshotRefused: a v1 file comes back from every reader with
// the one error that names the format, never half-decoded.
func TestV1SnapshotRefused(t *testing.T) {
	_, ds := buildWorldDataset(t)
	var v1 bytes.Buffer
	if err := ds.SaveBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1.Bytes(), binaryMagic[:]) {
		t.Fatal("v1 writer did not emit the v1 magic")
	}
	path := filepath.Join(t.TempDir(), "v1.p2o")
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() (*Dataset, error){
		"Load":     func() (*Dataset, error) { return Load(bytes.NewReader(v1.Bytes())) },
		"LoadFile": func() (*Dataset, error) { return LoadFile(context.Background(), path) },
		"OpenSnapshotFile(mmap)": func() (*Dataset, error) {
			return OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: true})
		},
		"OpenSnapshotFile(readfile)": func() (*Dataset, error) {
			return OpenSnapshotFile(context.Background(), path, OpenOptions{Mmap: false})
		},
	}
	for name, read := range readers {
		if d, err := read(); !errors.Is(err, errSnapshotV1) {
			t.Errorf("%s = %v, %v; want %q", name, d, err, errSnapshotV1)
		}
	}
	// An input that merely starts like the magic is not mistaken for a
	// binary snapshot of either version (and is not valid JSON).
	if _, err := Load(strings.NewReader("P2OSNAP")); err == nil || errors.Is(err, errSnapshotV1) {
		t.Errorf("short magic: err = %v, want a JSON error", err)
	}
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
