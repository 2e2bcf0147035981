// Package oracle is a reference implementation only tests may use: the
// fixture's "*" row denies it to every package.
package oracle

// Answer is what the real implementation is compared against.
func Answer() int { return 42 }
