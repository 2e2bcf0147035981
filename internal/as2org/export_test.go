package as2org

import "github.com/prefix2org/prefix2org/internal/intern"

// ScanLine runs a fresh reader's scanLine over line, for the tests in
// package as2org_test (which may import internal/synth; this package's
// own tests may not, synth imports it).
func ScanLine(line []byte) bool {
	rd := reader{d: NewDataset(), strs: intern.New(0)}
	return rd.scanLine(line)
}
