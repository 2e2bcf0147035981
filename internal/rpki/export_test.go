package rpki

import "github.com/prefix2org/prefix2org/internal/intern"

// ScanLine runs a fresh reader's scanLine over line, for the tests in
// package rpki_test (which may import internal/synth; this package's own
// tests may not, synth imports it).
func ScanLine(line []byte) bool {
	r := reader{repo: NewRepository(), strs: intern.New(0)}
	return r.scanLine(line)
}
