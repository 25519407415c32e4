package row

import (
	"math"
	"testing"
	"time"
)

// FuzzRowDecode feeds arbitrary bytes to both row-package decoders. Neither
// may panic. A row that decodes re-encodes to bytes that decode to the same
// row, and a schema that decodes is valid. The in-tree corpus holds one row
// of each TPC-C table and one schema.
func FuzzRowDecode(f *testing.F) {
	f.Add(Encode(Row{Int64(-1), Null(KindTime), BytesVal([]byte{0, 0xFF}), Time(time.Unix(0, math.MinInt64))}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := Decode(b); err == nil {
			again, err := Decode(Encode(r))
			if err != nil {
				t.Fatalf("re-encoded row %v does not decode: %v", r, err)
			}
			if !sameRow(r, again) {
				t.Fatalf("row %v re-decodes as %v", r, again)
			}
		}
		if s, err := DecodeSchema(b); err == nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("decoded schema %v is invalid: %v", s, err)
			}
		}
	})
}

// sameRow compares rows field by field, floats by their bits so that a NaN
// equals itself.
func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.IsNull != y.IsNull || x.Bool != y.Bool || x.Int != y.Int ||
			x.Str != y.Str || math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
	}
	return true
}
