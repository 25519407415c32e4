package row

import (
	"fmt"
	"testing"
)

// BenchmarkDecodeStockRow decodes a row shaped like the full TPC-C stock
// table: 17 columns, ten of them 24-byte district strings.
func BenchmarkDecodeStockRow(b *testing.B) {
	r := Row{Int64(1), Int64(42), Int64(73)}
	for d := 1; d <= 10; d++ {
		r = append(r, String(fmt.Sprintf("s-dist-%02d-%014d", d, 42)))
	}
	r = append(r, Float64(0), Int64(0), Int64(0), String("stock-data-000042-abcdefghijklmnopqrstuvwxyz"))
	if len(r) != 17 || len(r[3].Str) != 24 {
		b.Fatalf("stock row has %d columns and %d-byte districts", len(r), len(r[3].Str))
	}
	enc := Encode(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
