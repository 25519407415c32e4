package row

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleSchema() *Schema {
	return &Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Kind: KindInt64},
			{Name: "name", Kind: KindString},
			{Name: "score", Kind: KindFloat64},
			{Name: "blob", Kind: KindBytes},
			{Name: "ok", Kind: KindBool},
			{Name: "at", Kind: KindTime},
		},
		KeyCols: 1,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Row{
		Int64(-42),
		String("héllo"),
		Float64(3.14),
		BytesVal([]byte{0, 1, 2}),
		Bool(true),
		Time(time.Unix(123, 456)),
	}
	got, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("decoded %d values, want %d", len(got), len(r))
	}
	if got[0].Int != -42 || got[1].Str != "héllo" || got[2].Float != 3.14 {
		t.Fatalf("mismatch: %v", got)
	}
	if !bytes.Equal(got[3].Bytes(), []byte{0, 1, 2}) || !got[4].Bool {
		t.Fatalf("mismatch: %v", got)
	}
	if !got[5].Time().Equal(time.Unix(123, 456)) {
		t.Fatalf("time mismatch: %v", got[5].Time())
	}
}

func TestNullRoundTrip(t *testing.T) {
	r := Row{Int64(1), Null(KindString), Null(KindFloat64)}
	got, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got[1].IsNull || got[1].Kind != KindString {
		t.Fatalf("null string lost: %+v", got[1])
	}
	if !got[2].IsNull || got[2].Kind != KindFloat64 {
		t.Fatalf("null float lost: %+v", got[2])
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{byte(KindInt64), 1, 2}); err == nil {
		t.Error("truncated int should fail")
	}
	if _, err := Decode([]byte{0x7F}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := Decode([]byte{byte(KindString), 255, 255, 255, 255}); err == nil {
		t.Error("oversized string length should fail")
	}
}

// TestDecodeAllocatesTheRowOnce pins Decode to one allocation for the row
// itself on a TPC-C order_line row (ten columns, one string): the slice is
// sized by a first pass over the tags, not grown by append. The string is
// the second allocation.
func TestDecodeAllocatesTheRowOnce(t *testing.T) {
	orderLine := Row{
		Int64(1), Int64(7), Int64(3001), Int64(4), Int64(1234), Int64(1), Int64(5),
		Float64(49.5), Time(time.Unix(0, 0)), String("dist-info-24-characters-"),
	}
	enc := Encode(orderLine)
	var got Row
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Decode of a 10-column row allocates %.0f times, want 2 (row, string)", allocs)
	}
	if len(got) != len(orderLine) || cap(got) != len(orderLine) {
		t.Fatalf("decoded row has len %d cap %d, want %d and %d", len(got), cap(got), len(orderLine), len(orderLine))
	}
	if !reflect.DeepEqual(got, orderLine) {
		t.Fatalf("decoded %v, want %v", got, orderLine)
	}
	if r, err := Decode(nil); r != nil || err != nil {
		t.Fatalf("Decode(nil) = %v, %v", r, err)
	}
}

// TestDecodeMalformedNeverPanics cuts a valid row short at every length and
// plants an unknown tag and a hostile length at every value: Decode sizes
// the row from the same bytes it then rejects, and must return its error.
func TestDecodeMalformedNeverPanics(t *testing.T) {
	r := Row{Int64(9), String("abcdef"), Null(KindInt64), BytesVal([]byte{1, 2, 3}), Bool(true), Time(time.Unix(5, 0)), Float64(2.5)}
	enc := Encode(r)
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
	// A value's tag sits where the encoding of the values before it ends.
	var tags []int
	isTag := make(map[int]bool)
	for i := range r {
		tags = append(tags, len(Encode(r[:i])))
		isTag[tags[i]] = true
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); (err == nil) != isTag[cut] {
			t.Errorf("row cut at %d of %d: err = %v", cut, len(enc), err)
		}
	}
	for _, off := range tags {
		bad := append([]byte(nil), enc...)
		bad[off] = 0x7F
		if _, err := Decode(bad); err == nil {
			t.Errorf("unknown tag at %d accepted", off)
		}
		if k := Kind(enc[off]); k == KindString || k == KindBytes {
			bad = append([]byte(nil), enc...)
			copy(bad[off+1:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			if _, err := Decode(bad); err == nil {
				t.Errorf("length 2^32-1 at %d accepted", off)
			}
		}
	}
}

func TestQuickRowRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64, b []byte, ok bool, ns int64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		r := Row{Int64(i), String(s), Float64(fl), BytesVal(b), Bool(ok), Time(time.Unix(0, ns))}
		got, err := Decode(Encode(r))
		if err != nil {
			return false
		}
		return got[0].Int == i && got[1].Str == s && got[2].Float == fl &&
			bytes.Equal(got[3].Bytes(), b) && got[4].Bool == ok && got[5].Time().UnixNano() == ns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncodingOrdersInts(t *testing.T) {
	vals := []int64{math.MinInt64, -1000000, -1, 0, 1, 42, math.MaxInt64}
	var prev []byte
	for i, v := range vals {
		enc := EncodeKey(Row{Int64(v)})
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("key order broken at %d (%d)", i, v)
		}
		prev = enc
	}
}

func TestKeyEncodingOrdersFloats(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0001, 0, 0.0001, 1.5, 1e300, math.Inf(1)}
	var prev []byte
	for i, v := range vals {
		enc := EncodeKey(Row{Float64(v)})
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("float key order broken at %d (%g)", i, v)
		}
		prev = enc
	}
}

func TestKeyEncodingOrdersStringsWithZeros(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "a\x01", "ab", "b"}
	var prev []byte
	for i, v := range vals {
		enc := EncodeKey(Row{String(v)})
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("string key order broken at %d (%q)", i, v)
		}
		prev = enc
	}
}

func TestKeyEncodingCompositePrefixSafety(t *testing.T) {
	// ("a", 2) must order before ("ab", 1): field boundary beats content.
	k1 := EncodeKey(Row{String("a"), Int64(2)})
	k2 := EncodeKey(Row{String("ab"), Int64(1)})
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("composite ordering broken: field boundary not respected")
	}
}

func TestQuickKeyOrderMatchesIntOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(Row{Int64(a)})
		kb := EncodeKey(Row{Int64(b)})
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyOrderMatchesStringOrder(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(Row{String(a)})
		kb := EncodeKey(Row{String(b)})
		return sign(bytes.Compare(ka, kb)) == sign(bytes.Compare([]byte(a), []byte(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestSchemaValidate(t *testing.T) {
	good := sampleSchema()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []*Schema{
		{Name: "", Columns: []Column{{Name: "a", Kind: KindInt64}}, KeyCols: 1},
		{Name: "t", Columns: nil, KeyCols: 1},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt64}}, KeyCols: 0},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt64}}, KeyCols: 2},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt64}, {Name: "a", Kind: KindInt64}}, KeyCols: 1},
		{Name: "t", Columns: []Column{{Name: "", Kind: KindInt64}}, KeyCols: 1},
		{Name: "t", Columns: []Column{{Name: "a", Kind: Kind(99)}}, KeyCols: 1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
}

func TestRowCheckAgainst(t *testing.T) {
	s := sampleSchema()
	good := Row{Int64(1), String("x"), Float64(0), BytesVal(nil), Bool(false), Time(time.Unix(0, 0))}
	if err := good.CheckAgainst(s); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := (Row{Int64(1)}).CheckAgainst(s); err == nil {
		t.Error("short row accepted")
	}
	bad := Row{String("wrong"), String("x"), Float64(0), BytesVal(nil), Bool(false), Time(time.Unix(0, 0))}
	if err := bad.CheckAgainst(s); err == nil {
		t.Error("type-mismatched row accepted")
	}
	nullKey := Row{Null(KindInt64), String("x"), Float64(0), BytesVal(nil), Bool(false), Time(time.Unix(0, 0))}
	if err := nullKey.CheckAgainst(s); err == nil {
		t.Error("null key accepted")
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	s := sampleSchema()
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schema round trip:\n got %+v\nwant %+v", got, s)
	}
	if _, err := DecodeSchema([]byte{1, 2}); err == nil {
		t.Error("garbage schema accepted")
	}
}

func TestColumnIndex(t *testing.T) {
	s := sampleSchema()
	if s.ColumnIndex("score") != 2 {
		t.Errorf("ColumnIndex(score) = %d", s.ColumnIndex("score"))
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("missing column should return -1")
	}
}

// TestValueString pins String per kind. A time prints in the local zone,
// set to UTC here.
func TestValueString(t *testing.T) {
	local := time.Local
	time.Local = time.UTC
	t.Cleanup(func() { time.Local = local })
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int64(-7), "-7"},
		{Float64(2.5), "2.5"},
		{Float64(1e21), "1e+21"},
		{String("héllo"), "héllo"},
		{BytesVal([]byte{0, 0xFF, 0x10}), "00ff10"},
		{BytesVal(nil), ""},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Time(time.Unix(1, 500_000_000)), "1970-01-01T00:00:01.5Z"},
		{Time(time.Unix(0, -1)), "1969-12-31T23:59:59.999999999Z"},
		{Null(KindTime), "NULL"},
		{Null(KindBytes), "NULL"},
		{Value{Kind: Kind(99)}, "?"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}
