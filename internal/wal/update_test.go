package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage/page"
)

// leafRow builds a leaf record: u16 keyLen | key | value.
func leafRow(key, val string) []byte {
	rec := []byte{byte(len(key)), byte(len(key) >> 8)}
	return append(append(rec, key...), val...)
}

// pageWithRow returns a leaf with row in slot 1 between two neighbours that
// no update may disturb.
func pageWithRow(tb testing.TB, row []byte) *page.Page {
	p := freshLeaf()
	for i, rec := range [][]byte{[]byte("left neighbour"), row, []byte("right neighbour")} {
		if err := p.InsertAt(i, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

func updateOf(old, new []byte) *Record {
	r := &Record{LSN: 10, Type: TypeUpdate, PageID: 1, Slot: 1}
	r.SetUpdate(old, new, nil)
	return r
}

func TestUpdateCarriesOnlyTheMiddle(t *testing.T) {
	old := leafRow("key-7", "balance=0100 rest of a long row that does not change")
	new := leafRow("key-7", "balance=0250 rest of a long row that does not change")
	r := updateOf(old, new)
	if string(r.OldData) != "10" || string(r.NewData) != "25" {
		t.Fatalf("middles %q -> %q", r.OldData, r.NewData)
	}
	if off, _, err := r.UpdateHead(); err != nil || off != bytes.Index(old, []byte("100")) {
		t.Fatalf("offset %d, %v", off, err)
	}
	if key, err := r.RowKey(); err != nil || string(key) != "key-7" {
		t.Fatalf("key %q, %v", key, err)
	}
	if got, err := r.RowBefore(new); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("RowBefore = %q, %v", got, err)
	}
	other := append([]byte(nil), new...)
	other[bytes.Index(new, []byte("250"))] = '9'
	if _, err := r.RowBefore(other); !errors.Is(err, ErrChainCorrupt) {
		t.Fatalf("RowBefore of a row the update did not leave: %v", err)
	}
	clr, err := r.Compensation()
	if err != nil {
		t.Fatal(err)
	}
	clr.LSN = 11
	p := pageWithRow(t, new)
	if err := Redo(p, clr); err != nil || !bytes.Equal(p.MustGet(1), old) {
		t.Fatalf("compensation left %q, %v", p.MustGet(1), err)
	}
}

// TestWholeRowUpdateIsADelta: a record with whole images and no Extra — what
// the benchmark rig hand-builds and what a log written before deltas holds —
// applies, undoes and names its row like any other.
func TestWholeRowUpdateIsADelta(t *testing.T) {
	old, new := leafRow("k", "short"), leafRow("k", "rather longer")
	r := &Record{LSN: 10, Type: TypeUpdate, PageID: 1, Slot: 1, OldData: old, NewData: new}
	p := pageWithRow(t, old)
	if err := Redo(p, r); err != nil || !bytes.Equal(p.MustGet(1), new) {
		t.Fatalf("redo left %q, %v", p.MustGet(1), err)
	}
	if key, err := r.RowKey(); err != nil || string(key) != "k" {
		t.Fatalf("key %q, %v", key, err)
	}
	if got, err := r.RowBefore(new); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("RowBefore = %q, %v", got, err)
	}
	if err := Undo(p, r); err != nil || !bytes.Equal(p.MustGet(1), old) {
		t.Fatalf("undo left %q, %v", p.MustGet(1), err)
	}
}

// TestApplyToTheWrongPageIsChainCorrupt: a slot the page does not have, a
// byte range past the slot's end, replaced bytes that are not the logged
// ones — each is a typed error and leaves the page as it was.
func TestApplyToTheWrongPageIsChainCorrupt(t *testing.T) {
	old := leafRow("key", "aaaa-bbbb-cccc")
	new := leafRow("key", "aaaa-BBBB-cccc")
	good := updateOf(old, new)
	noSlot := *good
	noSlot.Slot = 9
	overrun := *good
	overrun.Extra = append([]byte{byte(len(old) - 2)}, good.Extra[1:]...)
	badOffset := *good
	badOffset.Extra = []byte{0x80}
	cases := map[string]*Record{
		"update: slot out of range":    &noSlot,
		"update: middle overruns":      &overrun,
		"update: offset unreadable":    &badOffset,
		"insert: slot out of range":    {LSN: 10, Type: TypeInsert, PageID: 1, Slot: 9, NewData: old},
		"delete: slot out of range":    {LSN: 10, Type: TypeDelete, PageID: 1, Slot: 9, OldData: old},
		"delete: no image to put back": {LSN: 10, Type: TypeDelete, PageID: 1, Slot: 1},
	}
	for name, r := range cases {
		for _, dir := range []string{"redo", "undo"} {
			if name == "delete: no image to put back" && dir == "redo" {
				continue // redo of a delete needs no image
			}
			row := old
			apply := Redo
			if dir == "undo" {
				row, apply = new, Undo
			}
			p := pageWithRow(t, row)
			want := append([]byte(nil), p.Bytes()...)
			if err := apply(p, r); !errors.Is(err, ErrChainCorrupt) {
				t.Errorf("%s, %s: err = %v, want ErrChainCorrupt", name, dir, err)
			}
			if !bytes.Equal(p.Bytes(), want) {
				t.Errorf("%s, %s: the refused record changed the page", name, dir)
			}
		}
	}
	// The check the full images never had: the bytes about to be replaced.
	p := pageWithRow(t, leafRow("key", "aaaa-bXbb-cccc"))
	if err := Redo(p, good); !errors.Is(err, ErrChainCorrupt) {
		t.Fatalf("redo over bytes that are not the old middle: %v", err)
	}
	if err := Undo(p, good); !errors.Is(err, ErrChainCorrupt) {
		t.Fatalf("undo over bytes that are not the new middle: %v", err)
	}
}

// FuzzRecordBody: the body decoder never panics, and a body it accepts is
// exactly what the record it returns marshals to — nothing is dropped,
// truncated or reinterpreted on the way in. Seeds are bodies cut from a
// TPC-C log (one or two of each record kind), and an insert body with flag
// bit 1 set, which no record carries.
func FuzzRecordBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeBody(body)
		if err != nil {
			return
		}
		if again := r.marshal(nil); !bytes.Equal(again, body) {
			t.Fatalf("decoded %x\nre-marshals to %x", body, again)
		}
		if r.marshaledSize() != len(body) {
			t.Fatalf("marshaledSize %d of a %d-byte body", r.marshaledSize(), len(body))
		}
	})
}

// FuzzUpdateDelta: for any two rows, the delta logged for old -> new, written
// and read back, redoes to exactly the page a whole-row UpdateAt produces and
// undoes to old; and with one replaced byte flipped on the page, redo and
// undo return ErrChainCorrupt and change nothing. Seeds are before/after
// rows of TPC-C updates, two per table; the fuzzer finds the length-changing,
// identical, empty and one-byte cases from there (and the first four are
// added below so every run covers them).
func FuzzUpdateDelta(f *testing.F) {
	f.Add([]byte("same"), []byte("same"), uint16(0))
	f.Add([]byte("x"), []byte("y"), uint16(0))
	f.Add([]byte("head-tail"), []byte("head-inserted-tail"), uint16(3))
	f.Add([]byte("head-removed-tail"), []byte("head-tail"), uint16(5))
	f.Add([]byte{}, []byte("from nothing"), uint16(1))
	f.Fuzz(func(t *testing.T, old, new []byte, flip uint16) {
		if len(old) > 2048 || len(new) > 2048 {
			t.Skip()
		}
		logged := updateOf(old, new)
		r, err := DecodeBody(logged.marshal(nil))
		if err != nil {
			t.Fatal(err)
		}
		r.LSN = logged.LSN

		before := pageWithRow(t, old)
		want := before.Clone()
		if err := want.UpdateAt(1, new); err != nil {
			t.Fatal(err)
		}
		want.SetPageLSN(uint64(r.LSN))
		p := before.Clone()
		if err := Redo(p, r); err != nil {
			t.Fatalf("redo: %v", err)
		}
		if !bytes.Equal(p.Bytes(), want.Bytes()) {
			t.Fatal("redo of the delta and UpdateAt of the whole row leave different pages")
		}
		after := p.Clone()
		if err := Undo(p, r); err != nil {
			t.Fatalf("undo: %v", err)
		}
		for i, rec := range [][]byte{[]byte("left neighbour"), old, []byte("right neighbour")} {
			if !bytes.Equal(p.MustGet(i), rec) {
				t.Fatalf("after undo slot %d = %q, want %q", i, p.MustGet(i), rec)
			}
		}

		off, _, _ := r.UpdateHead()
		for _, c := range []struct {
			name  string
			page  *page.Page
			mid   []byte
			apply func(*page.Page, *Record) error
		}{{"redo", before, r.OldData, Redo}, {"undo", after, r.NewData, Undo}} {
			if len(c.mid) == 0 {
				continue
			}
			q := c.page.Clone()
			q.MustGet(1)[off+int(flip)%len(c.mid)] ^= 0x40
			held := append([]byte(nil), q.Bytes()...)
			if err := c.apply(q, r); !errors.Is(err, ErrChainCorrupt) {
				t.Fatalf("%s over a flipped byte: %v", c.name, err)
			}
			if !bytes.Equal(q.Bytes(), held) {
				t.Fatalf("%s over a flipped byte changed the page", c.name)
			}
		}
	})
}

// A 300-byte row with an 8-byte counter in the middle: TPC-C's update shape.
func benchRows() (old, new []byte) {
	val := bytes.Repeat([]byte("c_data filler "), 21)[:290]
	old = leafRow("cust-042", string(val))
	new = append([]byte(nil), old...)
	copy(new[150:158], "\x01\x02\x03\x04\x05\x06\x07\x08")
	return old, new
}

func TestRedoUndoUpdateDoNotAllocate(t *testing.T) {
	old, new := benchRows()
	r := updateOf(old, new)
	if len(r.OldData) != 8 || len(r.NewData) != 8 {
		t.Fatalf("middles are %d and %d bytes", len(r.OldData), len(r.NewData))
	}
	p := pageWithRow(t, old)
	allocs := testing.AllocsPerRun(200, func() {
		p.SetPageLSN(0)
		if err := Redo(p, r); err != nil {
			t.Fatal(err)
		}
		if err := Undo(p, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("redo + undo of a same-length update allocate %v times", allocs)
	}
	var scratch []byte
	rec := Record{}
	scratch = rec.SetUpdate(old, new, scratch)
	if allocs := testing.AllocsPerRun(200, func() { scratch = rec.SetUpdate(old, new, scratch) }); allocs != 0 {
		t.Fatalf("SetUpdate with a warm scratch allocates %v times", allocs)
	}
}

func BenchmarkRedoUpdate(b *testing.B) {
	old, new := benchRows()
	fwd, back := updateOf(old, new), updateOf(new, old)
	p := pageWithRow(b, old)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r := fwd
		if i%2 == 1 {
			r = back
		}
		p.SetPageLSN(0)
		if err := Redo(p, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUndoUpdate(b *testing.B) {
	old, new := benchRows()
	fwd, back := updateOf(old, new), updateOf(new, old)
	p := pageWithRow(b, new)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r := fwd
		if i%2 == 1 {
			r = back
		}
		if err := Undo(p, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateDiff is the prefix/suffix scan Txn.UpdateRec pays per update.
func BenchmarkUpdateDiff(b *testing.B) {
	old, new := benchRows()
	var rec Record
	var scratch []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(old)))
	for b.Loop() {
		scratch = rec.SetUpdate(old, new, scratch)
	}
}
