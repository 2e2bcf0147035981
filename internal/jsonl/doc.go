// Package jsonl reads the one line shape this module's own JSON-lines
// writers emit, straight out of the line's bytes.
//
// rpki.Write and as2org.Write encode flat structs with encoding/json:
// one object per line, members in struct order, no whitespace, strings
// that are almost always plain ASCII, numbers that are plain unsigned
// integers. Reading such a line back through encoding/json costs a
// validation pass, a reflective decode and a heap copy of every string
// — for a shape a few byte comparisons recognise.
//
// # Contract
//
// A Line accepts a SUBSET of JSON and nothing outside JSON: a flat
// object whose members the caller asks for by exact name, in order,
// with values that are
//
//   - strings of ASCII bytes 0x20–0x7F with no '"' and no '\',
//   - unsigned decimal integers with no sign, fraction, exponent or
//     leading zero, up to a caller-given maximum,
//   - true or false,
//   - arrays of such strings, or of such integers,
//
// and no whitespace anywhere between tokens. Over that subset it yields
// exactly the values encoding/json would.
//
// Everything else — an escape, a byte ≥ 0x80 or < 0x20, a space after
// ':' or ',', members in another order, an unknown, duplicated or
// differently-cased key, null, a float, a negative or out-of-range
// number, a nested object, trailing bytes — makes the Line decline, and
// Close reports false. false means "ask encoding/json", never "this
// line is invalid": the caller decodes a declined line with
// encoding/json, which stays the only authority on what is an error.
//
// The returned byte slices alias the line; copy (or intern) what
// outlives it.
package jsonl
