package httpd

import (
	"testing"
)

// BenchmarkBulkLookup measures the per-line bulk path end to end —
// classify, parse, lookup, encode into a reused buffer — the loop a
// 10k-address bulk request runs 10k times against one pinned snapshot.
// allocs/op must stay 0: TestBulkLineZeroAlloc is the guard.
func BenchmarkBulkLookup(b *testing.B) {
	ds := dataset(b)
	lines := make([][]byte, 0, 64)
	for i := 0; i < 64 && i < len(ds.Records); i++ {
		lines = append(lines, []byte(ds.Records[i].Prefix.Addr().String()))
	}
	out := make([]byte, 0, 4096)
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = appendBulkLine(ds, nil, lines[i%len(lines)], out[:0])
		total += int64(len(out))
	}
	b.SetBytes(total / int64(b.N))
}
