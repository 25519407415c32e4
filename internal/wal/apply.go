package wal

import (
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
		return fmt.Errorf("wal: redo %v at %v on page %d: %w", r.Type, r.LSN, r.PageID, err)
	}
	p.SetPageLSN(uint64(r.LSN))
	return nil
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
		return p.UpdateAt(int(r.Slot), r.NewData)
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
			return fmt.Errorf("allocbits redo image is %d bytes", len(r.NewData))
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
	op := r.Type
	var old, new_ []byte = r.OldData, r.NewData
	if op == TypeCLR {
		// CLRs carry undo information precisely so that as-of queries can
		// rewind across rolled-back transactions (§4.2 extension 2).
		op = r.CLRType
	}
	switch op {
	case TypeInsert:
		_, err := p.DeleteAt(int(r.Slot))
		return wrapUndo(r, err)
	case TypeDelete:
		if len(old) == 0 {
			// Slot records are never empty; an empty undo image means the
			// record was logged without undo information (e.g. the
			// DisableCLRUndoInfo ablation) and the chain cannot be rewound.
			return wrapUndo(r, fmt.Errorf("missing undo image"))
		}
		return wrapUndo(r, p.InsertAt(int(r.Slot), old))
	case TypeUpdate:
		if len(old) == 0 {
			return wrapUndo(r, fmt.Errorf("missing undo image"))
		}
		return wrapUndo(r, p.UpdateAt(int(r.Slot), old))
	case TypeFormat:
		return nil
	case TypePreformat:
		if len(old) != page.Size {
			return wrapUndo(r, fmt.Errorf("preformat image is %d bytes", len(old)))
		}
		p.CopyFrom(old)
		return nil
	case TypeImage:
		// The image did not change the page content.
		_ = new_
		return nil
	case TypeAllocBits:
		if len(old) != 1 {
			return wrapUndo(r, fmt.Errorf("allocbits undo image is %d bytes", len(old)))
		}
		return wrapUndo(r, setRawByte(p, int(r.Slot), old[0]))
	default:
		return fmt.Errorf("wal: undo of non-undoable type %v at %v", r.Type, r.LSN)
	}
}

func wrapUndo(r *Record, err error) error {
	if err != nil {
		return fmt.Errorf("wal: undo %v at %v on page %d: %w", r.Type, r.LSN, r.PageID, err)
	}
	return nil
}

// setRawByte writes one byte of an allocation bitmap page's payload area.
// Allocation maps use the page buffer directly past the header rather than
// the slot machinery (they are fixed-size bitmaps).
func setRawByte(p *page.Page, idx int, v byte) error {
	buf := p.Bytes()
	off := allocPayloadOffset + idx
	if off < allocPayloadOffset || off >= page.Size {
		return fmt.Errorf("alloc byte index %d out of range", idx)
	}
	buf[off] = v
	return nil
}

// allocPayloadOffset is where an allocation map page's bitmap begins.
// Kept here because both redo/undo (this package) and the allocator need
// it; the allocator re-exports it.
const allocPayloadOffset = 64
