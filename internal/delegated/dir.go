package delegated

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/fsx"
)

// Dir is the delegation files' directory inside a data directory.
const Dir = "delegated"

func fileName(rir alloc.Registry) string {
	return fmt.Sprintf("delegated-%s-extended-latest", strings.ToLower(string(rir)))
}

// WriteDir writes one delegated-extended file per RIR under dir.
func WriteDir(dir string, files map[alloc.Registry]*File) error {
	for _, rir := range alloc.RIRs {
		f, ok := files[rir]
		if !ok {
			continue
		}
		if err := fsx.WriteFile(filepath.Join(dir, Dir, fileName(rir)), f.Write); err != nil {
			return fmt.Errorf("delegated: %w", err)
		}
	}
	return nil
}

// LoadDir reads every RIR's delegated-extended file present under dir.
// Missing files are skipped. The context is checked between registry
// files so a canceled build stops promptly.
func LoadDir(ctx context.Context, dir string) (map[alloc.Registry]*File, error) {
	out := map[alloc.Registry]*File{}
	err := eachFile(ctx, dir, func(rir alloc.Registry, r io.Reader) (err error) {
		out[rir], err = Parse(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanDir is LoadDir without the Files: it calls fn with every record of
// every RIR's file present under dir — RIRs in alloc.RIRs order, records
// in file order, the Record reused from call to call — and returns the
// number of files read.
func ScanDir(ctx context.Context, dir string, fn func(rir alloc.Registry, rec *Record) error) (files int, err error) {
	err = eachFile(ctx, dir, func(rir alloc.Registry, r io.Reader) error {
		files++
		_, err := Scan(r, func(rec *Record) error { return fn(rir, rec) })
		return err
	})
	return files, err
}

// eachFile calls read with every RIR's file present under dir, in
// alloc.RIRs order, checking the context between files.
func eachFile(ctx context.Context, dir string, read func(rir alloc.Registry, r io.Reader) error) error {
	for _, rir := range alloc.RIRs {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(dir, Dir, fileName(rir))
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("delegated: open %s: %w", path, err)
		}
		err = read(rir, f)
		f.Close() // read only
		if err != nil {
			return fmt.Errorf("delegated: parse %s: %w", path, err)
		}
	}
	return nil
}
