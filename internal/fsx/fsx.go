// Package fsx is the one way this module writes a file: a reader of the
// path sees the old file or the new one, never a half-written one.
package fsx

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile fills a new file beside path with write and renames it over
// path, creating path's directory if it is missing. The file gets
// os.Create's permissions (0666 before umask; os.CreateTemp would give
// 0600). When path exists and is not a regular file (/dev/stdout, a
// FIFO), write writes path itself. The new file is removed on any error.
//
// Each file is replaced atomically; a directory of them is not. Nothing
// is synced: a killed writer leaves the old file and a *.tmp-* file
// beside it, but power loss is not covered.
func WriteFile(path string, write func(io.Writer) error) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		return errors.Join(write(f), f.Close())
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var f *os.File
	err := os.ErrExist
	for i := 0; os.IsExist(err); i++ {
		f, err = os.OpenFile(fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), i), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	}
	if err != nil {
		return err
	}
	err = errors.Join(write(f), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
