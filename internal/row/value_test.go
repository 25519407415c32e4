package row

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestValueIs40Bytes pins the layout: a decoded row costs 40 bytes per
// column, not the 96 a Value with its own time.Time and []byte took.
func TestValueIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", n)
	}
}

// roundTrip encodes each value alone, decodes it, and requires the same
// value back.
func roundTrip(t *testing.T, vals ...Value) {
	t.Helper()
	for _, v := range vals {
		got, err := Decode(Encode(Row{v}))
		if err != nil {
			t.Fatalf("%v (%v): %v", v, v.Kind, err)
		}
		if len(got) != 1 || got[0] != v {
			t.Fatalf("%+v decodes as %+v", v, got)
		}
	}
}

// keysAscend requires EncodeKey to order the values as listed, strictly.
func keysAscend(t *testing.T, vals ...Value) {
	t.Helper()
	for i := 1; i < len(vals); i++ {
		a, b := EncodeKey(Row{vals[i-1]}), EncodeKey(Row{vals[i]})
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("key of %v (%x) does not sort before key of %v (%x)", vals[i-1], a, vals[i], b)
		}
	}
}

func TestTimeValues(t *testing.T) {
	for _, ns := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		v := Time(time.Unix(0, ns))
		if v.Int != ns || v.Time().UnixNano() != ns {
			t.Fatalf("Time(%d) holds %d, Time() = %d", ns, v.Int, v.Time().UnixNano())
		}
		roundTrip(t, v)
	}
	keysAscend(t, Time(time.Unix(0, math.MinInt64)), Time(time.Unix(0, -1)),
		Time(time.Unix(0, 0)), Time(time.Unix(0, math.MaxInt64)))
	// The stored bytes are the Unix nanoseconds, as before the layout change.
	want := "06" + "0100000000000000" // tag, then 1 ns little-endian
	if got := hex.EncodeToString(Encode(Row{Time(time.Unix(0, 1))})); got != want {
		t.Fatalf("Encode(1 ns) = %s, want %s", got, want)
	}
}

func TestBytesValues(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0}, {0, 0xFF, 0}, []byte("abc")} {
		v := BytesVal(b)
		if got := v.Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("BytesVal(%x).Bytes() = %x", b, got)
		}
		roundTrip(t, v)
	}
	keysAscend(t, BytesVal(nil), BytesVal([]byte{0}), BytesVal([]byte{0, 0}),
		BytesVal([]byte{0, 1}), BytesVal([]byte{1}))
	if !bytes.Equal(EncodeKey(Row{BytesVal(nil)}), EncodeKey(Row{BytesVal([]byte{})})) {
		t.Fatal("nil and empty bytes encode to different keys")
	}
}

// TestBytesDoNotAlias: a value owns its bytes. Changing the slice it was
// made from, or the slice Bytes returned, leaves it as it was.
func TestBytesDoNotAlias(t *testing.T) {
	src := []byte{1, 2, 3}
	v := BytesVal(src)
	src[0] = 9
	out := v.Bytes()
	out[1] = 9
	if got := v.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("value changed through an alias: %x", got)
	}
}

// TestNullValues: NULL of every kind round-trips, and its key bytes are the
// ones stored before the layout change — a NULL time keys as the zero
// time.Time's UnixNano, which a NULL time once held.
func TestNullValues(t *testing.T) {
	golden := map[Kind]string{
		KindInt64:   "8000000000000000",
		KindFloat64: "8000000000000000",
		KindString:  "0000",
		KindBytes:   "0000",
		KindBool:    "00",
		KindTime:    "21b203eb3d1a0000",
	}
	for k, want := range golden {
		v := Null(k)
		roundTrip(t, v)
		if got := hex.EncodeToString(Encode(Row{v})); got != hex.EncodeToString([]byte{byte(k) | 0x80}) {
			t.Fatalf("Encode(NULL %v) = %s", k, got)
		}
		if got := hex.EncodeToString(EncodeKey(Row{v})); got != want {
			t.Fatalf("EncodeKey(NULL %v) = %s, want %s", k, got, want)
		}
	}
}
