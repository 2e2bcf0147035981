// Package tool has no row of its own in the layering table; the "*"
// row still applies to it.
package tool

import "example.com/layer/oracle" // want: layering violation

// Run builds on the test-only oracle — the violation under test.
func Run() int { return oracle.Answer() }
