// Package row implements typed rows and their encodings: a tagged value
// encoding for stored rows and an order-preserving encoding for index keys,
// so B-Tree byte comparisons agree with typed comparisons.
package row

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// Kind enumerates column types.
type Kind uint8

const (
	KindInt64 Kind = iota + 1
	KindFloat64
	KindString
	KindBytes
	KindBool
	KindTime
)

func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single typed value, 40 bytes. Kind selects the field that holds
// it: Int (KindInt64, and KindTime as Unix nanoseconds, which is what the
// encodings store), Float, Str (KindString, and KindBytes) or Bool. Time and
// Bytes read the two kinds kept in another type's field. Null values have
// IsNull set.
type Value struct {
	Kind   Kind
	IsNull bool
	Bool   bool
	Int    int64
	Float  float64
	Str    string
}

// Convenience constructors.
func Int64(v int64) Value     { return Value{Kind: KindInt64, Int: v} }
func Float64(v float64) Value { return Value{Kind: KindFloat64, Float: v} }
func String(v string) Value   { return Value{Kind: KindString, Str: v} }
func BytesVal(v []byte) Value { return Value{Kind: KindBytes, Str: string(v)} }
func Bool(v bool) Value       { return Value{Kind: KindBool, Bool: v} }
func Time(v time.Time) Value  { return Value{Kind: KindTime, Int: v.UnixNano()} }
func Null(k Kind) Value       { return Value{Kind: k, IsNull: true} }

// Time returns a KindTime value's instant, in the local zone.
func (v Value) Time() time.Time { return time.Unix(0, v.Int) }

// Bytes returns a copy of a KindBytes value's bytes.
func (v Value) Bytes() []byte { return []byte(v.Str) }

func (v Value) String() string {
	if v.IsNull {
		return "NULL"
	}
	switch v.Kind {
	case KindInt64:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat64:
		return fmt.Sprintf("%g", v.Float)
	case KindString:
		return v.Str
	case KindBytes:
		return fmt.Sprintf("%x", v.Str)
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes a table: named typed columns, the first KeyCols of which
// form the primary key.
type Schema struct {
	Name    string
	Columns []Column
	KeyCols int
}

// Validate checks structural invariants.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("row: schema has no name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("row: schema %q has no columns", s.Name)
	}
	if s.KeyCols <= 0 || s.KeyCols > len(s.Columns) {
		return fmt.Errorf("row: schema %q has invalid key width %d", s.Name, s.KeyCols)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("row: schema %q has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("row: schema %q repeats column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Kind {
		case KindInt64, KindFloat64, KindString, KindBytes, KindBool, KindTime:
		default:
			return fmt.Errorf("row: schema %q column %q has invalid kind", s.Name, c.Name)
		}
	}
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
		if i < s.KeyCols {
			b.WriteString(" KEY")
		}
	}
	b.WriteString(")")
	return b.String()
}

// Row is an ordered list of values matching a schema.
type Row []Value

// CheckAgainst validates that r conforms to s.
func (r Row) CheckAgainst(s *Schema) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("row: %d values for %d columns of %q", len(r), len(s.Columns), s.Name)
	}
	for i, v := range r {
		if v.Kind != s.Columns[i].Kind {
			return fmt.Errorf("row: column %q wants %v, got %v", s.Columns[i].Name, s.Columns[i].Kind, v.Kind)
		}
		if v.IsNull && i < s.KeyCols {
			return fmt.Errorf("row: key column %q is null", s.Columns[i].Name)
		}
	}
	return nil
}

// Key extracts the primary-key values.
func (r Row) Key(s *Schema) Row { return r[:s.KeyCols] }

// Encode serializes the row with a tagged value encoding.
func Encode(r Row) []byte {
	var buf []byte
	var tmp [8]byte
	for _, v := range r {
		tag := byte(v.Kind)
		if v.IsNull {
			tag |= 0x80
		}
		buf = append(buf, tag)
		if v.IsNull {
			continue
		}
		switch v.Kind {
		case KindInt64, KindTime:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.Int))
			buf = append(buf, tmp[:]...)
		case KindFloat64:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Float))
			buf = append(buf, tmp[:]...)
		case KindString, KindBytes:
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(v.Str)))
			buf = append(buf, tmp[:4]...)
			buf = append(buf, v.Str...)
		case KindBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// countValues walks the tags of an encoded row and returns how many values
// it holds. It stops at the first value Decode would reject, so on malformed
// input the result is only a capacity hint.
func countValues(b []byte) int {
	n := 0
	for len(b) > 0 {
		tag := b[0]
		b = b[1:]
		n++
		if tag&0x80 != 0 {
			continue
		}
		size := 0
		switch Kind(tag) {
		case KindInt64, KindFloat64, KindTime:
			size = 8
		case KindBool:
			size = 1
		case KindString, KindBytes:
			if len(b) < 4 {
				return n
			}
			l := binary.LittleEndian.Uint32(b)
			if uint64(l) > uint64(len(b)-4) { // in uint64: no int to wrap
				return n
			}
			size = 4 + int(l)
		default:
			return n
		}
		if len(b) < size {
			return n
		}
		b = b[size:]
	}
	return n
}

// Decode parses an encoded row. The row is sized by a first pass over the
// tags and allocated once: growing a 10-column row by append allocates three
// times the slots it keeps.
func Decode(b []byte) (Row, error) {
	var r Row
	if n := countValues(b); n > 0 {
		r = make(Row, 0, n)
	}
	for len(b) > 0 {
		tag := b[0]
		b = b[1:]
		isNull := tag&0x80 != 0
		kind := Kind(tag &^ 0x80)
		v := Value{Kind: kind, IsNull: isNull}
		if isNull {
			r = append(r, v)
			continue
		}
		need := func(n int) error {
			if len(b) < n {
				return fmt.Errorf("row: truncated value of kind %v", kind)
			}
			return nil
		}
		switch kind {
		case KindInt64, KindTime:
			if err := need(8); err != nil {
				return nil, err
			}
			v.Int = int64(binary.LittleEndian.Uint64(b))
			b = b[8:]
		case KindFloat64:
			if err := need(8); err != nil {
				return nil, err
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		case KindString, KindBytes:
			if err := need(4); err != nil {
				return nil, err
			}
			n := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if err := need(n); err != nil {
				return nil, err
			}
			v.Str = string(b[:n])
			b = b[n:]
		case KindBool:
			if err := need(1); err != nil {
				return nil, err
			}
			v.Bool = b[0] != 0
			b = b[1:]
		default:
			return nil, fmt.Errorf("row: unknown kind tag %d", kind)
		}
		r = append(r, v)
	}
	return r, nil
}

// nullTimeKey is what a NULL time encodes to in a key: the UnixNano of the
// zero time.Time, which a NULL time once held. An index on a time column
// keeps finding the NULL entries it already stores.
var nullTimeKey = time.Time{}.UnixNano()

// EncodeKey encodes values with an order-preserving encoding: byte-wise
// comparison of encoded keys matches typed comparison of the values.
func EncodeKey(vals Row) []byte {
	var buf []byte
	var tmp [8]byte
	for _, v := range vals {
		switch v.Kind {
		case KindInt64, KindTime:
			n := v.Int
			if v.IsNull && v.Kind == KindTime {
				n = nullTimeKey
			}
			// Flip the sign bit so negative numbers order first.
			binary.BigEndian.PutUint64(tmp[:], uint64(n)^(1<<63))
			buf = append(buf, tmp[:]...)
		case KindFloat64:
			bits := math.Float64bits(v.Float)
			if bits&(1<<63) != 0 {
				bits = ^bits // negative floats: flip all
			} else {
				bits |= 1 << 63 // positive: flip sign
			}
			binary.BigEndian.PutUint64(tmp[:], bits)
			buf = append(buf, tmp[:]...)
		case KindString, KindBytes:
			buf = appendEscaped(buf, v.Str)
		case KindBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// appendEscaped appends s with 0x00 escaped as 0x00 0xFF and a 0x00 0x00
// terminator, preserving prefix ordering for variable-length fields.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00, 0x00)
}

// PrefixSuccessor returns the smallest byte string greater than every
// string having prefix p, or nil if none exists (p is all 0xFF). Used to
// turn an encoded key prefix into a scan upper bound.
func PrefixSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
