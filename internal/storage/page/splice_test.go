package page

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// updateAtWholeRow is UpdateAt as it was before SpliceAt existed, kept as the
// reference: a splice must leave the page byte-for-byte as this leaves it —
// record placement, slot array, free-space bounds, even the bytes in the gaps
// — because redo of a delta on one node and of a whole row on another (or in
// an older log) must agree on where LastPlaced and the next insert land.
func (p *Page) updateAtWholeRow(i int, rec []byte) error {
	off, l := p.slotAt(i)
	if len(rec) <= l {
		copy(p.buf[off:], rec)
		p.setSlotAt(i, off, len(rec))
		return nil
	}
	contiguous := p.freeUpper() - p.freeLower()
	if contiguous < len(rec) {
		if contiguous+p.fragmented()+l < len(rec) {
			return ErrPageFull
		}
		p.setSlotAt(i, off, 0)
		p.compact()
	}
	newUpper := p.freeUpper() - len(rec)
	copy(p.buf[newUpper:], rec)
	p.setFreeUpper(newUpper)
	p.setSlotAt(i, newUpper, len(rec))
	return nil
}

func TestSpliceLeavesThePageAWholeRowUpdateLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	grown, compacted, full := 0, 0, 0
	for round := 0; round < 300; round++ {
		p := New()
		p.Format(7, TypeLeaf, 0)
		for p.HasSpace(700) {
			rec := make([]byte, 20+rng.Intn(600))
			rng.Read(rec)
			if err := p.InsertAt(rng.Intn(p.NumSlots()+1), rec); err != nil {
				t.Fatal(err)
			}
		}
		ref := p.Clone()
		for step := 0; step < 60; step++ {
			i := rng.Intn(p.NumSlots())
			old := append([]byte(nil), p.MustGet(i)...)
			at := rng.Intn(len(old) + 1)
			oldLen := rng.Intn(len(old) - at + 1)
			mid := make([]byte, rng.Intn(3)*rng.Intn(300))
			if rng.Intn(2) == 0 {
				mid = make([]byte, oldLen) // the common case: same length
			}
			rng.Read(mid)
			row := append(append(append([]byte(nil), old[:at]...), mid...), old[at+oldLen:]...)

			contiguous := p.freeUpper() - p.freeLower()
			errRef := ref.updateAtWholeRow(i, row)
			err := p.SpliceAt(i, at, oldLen, mid)
			if (err != nil) != (errRef != nil) || (err != nil && !errors.Is(err, ErrPageFull)) {
				t.Fatalf("round %d step %d: splice err %v, whole-row err %v", round, step, err, errRef)
			}
			if !bytes.Equal(p.Bytes(), ref.Bytes()) {
				t.Fatalf("round %d step %d: pages differ after replacing [%d,%d) of a %d-byte record with %d bytes",
					round, step, at, at+oldLen, len(old), len(mid))
			}
			switch {
			case err != nil:
				full++
			case len(row) > len(old) && contiguous < len(row):
				compacted++
			case len(row) > len(old):
				grown++
			}
		}
	}
	if grown == 0 || compacted == 0 || full == 0 {
		t.Fatalf("schedule covered %d re-placements, %d compactions, %d full pages", grown, compacted, full)
	}
}

func TestSpliceRangeChecks(t *testing.T) {
	p := New()
	p.Format(1, TypeLeaf, 0)
	if err := p.InsertAt(0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), p.Bytes()...)
	for _, c := range []struct{ slot, at, oldLen int }{{1, 0, 0}, {-1, 0, 0}, {0, 11, 0}, {0, 8, 3}, {0, -1, 2}, {0, 2, -1}} {
		err := p.SpliceAt(c.slot, c.at, c.oldLen, []byte("x"))
		if !errors.Is(err, ErrBadSlot) && !errors.Is(err, ErrBadSplice) {
			t.Fatalf("SpliceAt(%d, %d, %d): %v", c.slot, c.at, c.oldLen, err)
		}
		if !bytes.Equal(p.Bytes(), held) {
			t.Fatalf("refused SpliceAt(%d, %d, %d) changed the page", c.slot, c.at, c.oldLen)
		}
	}
	if err := p.SpliceAt(0, 3, 4, make([]byte, MaxRecordSize)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized splice: %v", err)
	}
}

func TestSameLengthSpliceDoesNotAllocate(t *testing.T) {
	p := New()
	p.Format(1, TypeLeaf, 0)
	if err := p.InsertAt(0, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	mid := []byte("8 bytes!")
	if n := testing.AllocsPerRun(100, func() {
		if err := p.SpliceAt(0, 150, len(mid), mid); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("same-length splice allocates %v times", n)
	}
}
