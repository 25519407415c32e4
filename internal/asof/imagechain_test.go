package asof

import (
	"errors"
	"testing"

	"repro/internal/storage/page"
	"repro/internal/wal"
)

// imageChainLog lays down one leaf's history in a fresh log: a format, an
// insert of "a", a full image of the page after that insert whose
// PrevPageLSN is imgPrev (NilLSN: the honest link, to the insert), and an
// insert of "b" before "a" whose PrevPageLSN is the insert of "a", past the
// image. It returns the log, the page as the last record left
// it, and the LSNs of the insert of "a", the image and the insert of "b".
func imageChainLog(t *testing.T, imgPrev wal.LSN) (*wal.Manager, *page.Page, [3]wal.LSN) {
	t.Helper()
	lg, err := wal.OpenStore(t.TempDir(), wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	p := page.New()
	apply := func(r *wal.Record) wal.LSN {
		t.Helper()
		r.PageID = 1
		if r.PrevPageLSN == wal.NilLSN {
			r.PrevPageLSN = wal.LSN(p.PageLSN())
		}
		lsn, err := lg.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Redo(p, r); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	var lsns [3]wal.LSN
	apply(&wal.Record{Type: wal.TypeFormat, Extra: []byte{byte(page.TypeLeaf), 0}})
	lsns[0] = apply(&wal.Record{Type: wal.TypeInsert, Slot: 0, NewData: []byte("a")})
	img := append([]byte(nil), p.Bytes()...)
	lsns[1] = apply(&wal.Record{Type: wal.TypeImage, NewData: img, PrevPageLSN: imgPrev})
	lsns[2] = apply(&wal.Record{Type: wal.TypeInsert, Slot: 0, NewData: []byte("b"), PrevPageLSN: lsns[0]})
	if err := lg.Flush(lsns[2]); err != nil {
		t.Fatal(err)
	}
	return lg, p, lsns
}

// TestImageChainMustDescend rewinds a page across a full image whose
// PrevPageLSN names a record after the image. The restored image already is
// the page as of the insert of "a"; following the link would undo the
// newer insert of "b" on it, delete "a" instead, and stamp an empty page as
// the page as of that insert. The walk must refuse the link instead.
func TestImageChainMustDescend(t *testing.T) {
	// An honest image rewinds to the page holding "a" alone.
	lg, p, lsns := imageChainLog(t, wal.NilLSN)
	if err := PreparePageAsOf(p, lsns[0], lg, nil); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 1 || string(p.MustGet(0)) != "a" || wal.LSN(p.PageLSN()) != lsns[0] {
		t.Fatalf("honest image: %d slots, pageLSN %d, want [a] at %d", p.NumSlots(), p.PageLSN(), lsns[0])
	}

	// The image's link goes to the insert of "b", above the image. The
	// link's own length moves the LSNs after it, so build until it names
	// the record it lands on.
	target := lsns[2]
	for {
		lg, p, lsns = imageChainLog(t, target)
		if lsns[2] == target {
			break
		}
		target = lsns[2]
	}
	stats := &Stats{}
	err := PreparePageAsOf(p, lsns[0], lg, stats)
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("image linking up to %d from %d: err = %v, want ErrChainBroken (page has %d slots)",
			lsns[2], lsns[1], err, p.NumSlots())
	}
	if n := stats.ImageRestores.Load(); n != 0 {
		t.Fatalf("%d images restored before the link was checked, want 0", n)
	}
}

// TestImageOfWrongLengthIsChainBroken rewinds a page across a full image
// record whose image is not one page long: the record is CRC-valid, but
// restoring it would copy half a page over the page being rewound (and the
// page's own copy refuses that with a panic). The walk must return
// ErrChainBroken instead, as redo refuses such a record.
func TestImageOfWrongLengthIsChainBroken(t *testing.T) {
	lg, err := wal.OpenStore(t.TempDir(), wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	p := page.New()
	apply := func(r *wal.Record) wal.LSN {
		t.Helper()
		r.PageID = 1
		r.PrevPageLSN = wal.LSN(p.PageLSN())
		lsn, err := lg.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Redo(p, r); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	apply(&wal.Record{Type: wal.TypeFormat, Extra: []byte{byte(page.TypeLeaf), 0}})
	inserted := apply(&wal.Record{Type: wal.TypeInsert, Slot: 0, NewData: []byte("a")})
	// The image record is logged but, having no page's worth of bytes, not
	// redone: the page takes the LSNs an honest image would have left.
	img, err := lg.Append(&wal.Record{Type: wal.TypeImage, PageID: 1, PrevPageLSN: inserted,
		NewData: append([]byte(nil), p.Bytes()[:page.Size/2]...)})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPageLSN(uint64(img))
	p.SetLastImageLSN(uint64(img))
	last := apply(&wal.Record{Type: wal.TypeInsert, Slot: 0, NewData: []byte("b")})
	if err := lg.Flush(last); err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	err = PreparePageAsOf(p, inserted, lg, stats)
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("image of %d bytes: err = %v, want ErrChainBroken", page.Size/2, err)
	}
	if n := stats.ImageRestores.Load(); n != 0 {
		t.Fatalf("%d images restored, want 0", n)
	}
}
