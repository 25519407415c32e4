package wal

import (
	"errors"
	"fmt"

	"repro/internal/storage/page"
)

// This file implements the physiological application of log records to
// pages: Redo replays a record forward, Undo reverses it. Undo applied in
// exact reverse chain order reconstructs every earlier state of a page,
// which is what makes the paper's page-oriented undo (§4.1 option B) work:
// slot indexes recorded at do-time are valid again by the time the undo
// reaches them.

// Redo applies r to p if the page has not seen it yet (pageLSN < r.LSN),
// and stamps the page with r.LSN. It is idempotent.
func Redo(p *page.Page, r *Record) error {
	if page.ID(r.PageID) == page.InvalidID {
		return fmt.Errorf("wal: redo of non-page record %v", r.Type)
	}
	if LSN(p.PageLSN()) >= r.LSN {
		return nil // already applied
	}
	if err := applyRedo(p, r); err != nil {
		return wrapApply("redo", r, err)
	}
	p.SetPageLSN(uint64(r.LSN))
	return nil
}

// RebuildsPage reports whether redoing r writes every byte of its page, so
// that what the page held before r cannot show through: a format (which
// zeroes the page first), a preformat or a CLR that compensates one (which
// copy in the saved prior image), and a page image. applyRedo below is where
// each of them is seen to overwrite all page.Size bytes.
//
// Redo may then take a zeroed frame instead of reading the page. That is
// safe because every redo applies, for each page, a suffix in LSN order of
// that page's records in the range it scans: crash recovery applies, below
// the checkpoint's begin record, the records at or after the page's recLSN
// in the dirty-page table and, from the begin record on, all of them; a
// standby and a backup restore apply all of them from where they start. So
// once redo applies a rebuilding record it applies every later record of
// the page too, and the bytes the page held before — on disk, possibly
// torn, possibly ahead of r — are dead. A zeroed frame has pageLSN 0, below
// r's LSN, so Redo applies r to it.
func (r *Record) RebuildsPage() bool {
	switch r.Type {
	case TypeFormat, TypePreformat, TypeImage:
		return true
	case TypeCLR:
		return r.CLRType == TypePreformat
	}
	return false
}

func applyRedo(p *page.Page, r *Record) error {
	op := r.Type
	if op == TypeCLR {
		op = r.CLRType
	}
	switch op {
	case TypeInsert:
		return p.InsertAt(int(r.Slot), r.NewData)
	case TypeDelete:
		_, err := p.DeleteAt(int(r.Slot))
		return err
	case TypeUpdate:
		return spliceUpdate(p, r, r.OldData, r.NewData)
	case TypeFormat:
		if len(r.Extra) < 2 {
			return fmt.Errorf("format record missing parameters")
		}
		p.Format(page.ID(r.PageID), page.Type(r.Extra[0]), r.Extra[1])
		return nil
	case TypePreformat:
		// Redo restores the saved prior image: after a crash the page on
		// disk may predate the deallocated content this record preserves.
		if len(r.OldData) != page.Size {
			return fmt.Errorf("preformat image is %d bytes", len(r.OldData))
		}
		p.CopyFrom(r.OldData)
		return nil
	case TypeImage:
		if len(r.NewData) != page.Size {
			return fmt.Errorf("page image is %d bytes", len(r.NewData))
		}
		p.CopyFrom(r.NewData)
		p.SetLastImageLSN(uint64(r.LSN))
		return nil
	case TypeAllocBits:
		if len(r.NewData) != 1 {
			return fmt.Errorf("%w: allocbits redo image is %d bytes", ErrChainCorrupt, len(r.NewData))
		}
		return setRawByte(p, int(r.Slot), r.NewData[0])
	default:
		return fmt.Errorf("not a redoable type")
	}
}

// Undo reverses r on p. It does not adjust pageLSN: PreparePageAsOf tracks
// the chain cursor itself and stamps the final pageLSN when it stops
// (paper Figure 3).
//
// Undo of a format record is a no-op: the content it erased is restored by
// the preformat record that precedes it on the chain (paper Figure 2), or —
// for a first allocation — the page simply did not exist as of the target
// time and nothing as-of-consistent can reference it.
func Undo(p *page.Page, r *Record) error {
	return wrapApply("undo", r, applyUndo(p, r))
}

func applyUndo(p *page.Page, r *Record) error {
	op := r.Type
	old := r.OldData
	if op == TypeCLR {
		// CLRs carry undo information precisely so that as-of queries can
		// rewind across rolled-back transactions (§4.2 extension 2).
		op = r.CLRType
	}
	switch op {
	case TypeInsert:
		_, err := p.DeleteAt(int(r.Slot))
		return err
	case TypeDelete:
		if len(old) == 0 {
			return fmt.Errorf("%w: no deleted row image", ErrChainCorrupt)
		}
		return p.InsertAt(int(r.Slot), old)
	case TypeUpdate:
		return spliceUpdate(p, r, r.NewData, old)
	case TypeFormat, TypeImage:
		// The preformat record before a format restores what it erased; an
		// image changed nothing.
		return nil
	case TypePreformat:
		if len(old) != page.Size {
			return fmt.Errorf("preformat image is %d bytes", len(old))
		}
		p.CopyFrom(old)
		return nil
	case TypeAllocBits:
		if len(old) != 1 {
			return fmt.Errorf("%w: allocbits undo image is %d bytes", ErrChainCorrupt, len(old))
		}
		return setRawByte(p, int(r.Slot), old[0])
	default:
		return errors.New("not an undoable type")
	}
}

// wrapApply names the record a failed redo or undo belongs to. A slot or byte
// range the page does not have is ErrChainCorrupt, whatever the page called it.
func wrapApply(verb string, r *Record, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, page.ErrBadSlot) || errors.Is(err, page.ErrBadSplice) {
		err = fmt.Errorf("%w: %w", ErrChainCorrupt, err)
	}
	return fmt.Errorf("wal: %s %v at %v on page %d: %w", verb, r.Type, r.LSN, r.PageID, err)
}

// setRawByte writes one byte of an allocation bitmap page's payload area.
// Allocation maps use the page buffer directly past the header rather than
// the slot machinery (they are fixed-size bitmaps).
func setRawByte(p *page.Page, idx int, v byte) error {
	buf := p.Bytes()
	off := allocPayloadOffset + idx
	if off < allocPayloadOffset || off >= page.Size {
		return fmt.Errorf("%w: alloc byte index %d out of range", ErrChainCorrupt, idx)
	}
	buf[off] = v
	return nil
}

// allocPayloadOffset is where an allocation map page's bitmap begins.
// Kept here because both redo/undo (this package) and the allocator need
// it; the allocator re-exports it.
const allocPayloadOffset = 64
