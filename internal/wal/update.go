package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage/page"
)

// This file is everything that knows the body of an update record. A
// TypeUpdate (and a CLR whose CLRType is TypeUpdate) carries the bytes that
// changed, not the row twice: with the row before and after written as
//
//	head ‖ old middle ‖ tail   ->   head ‖ new middle ‖ tail
//
// OldData is the old middle, NewData the new middle, and Extra is
// uvarint(len(head)) followed by the row's leaf key header (u16 keyLen | key),
// so logical undo and lock reacquisition can find the row without its image.
// The tail's length is whatever the slot holds past the middle. A record with
// an empty Extra has an empty head: a middle that starts at byte 0 begins with
// the key header itself, so a whole-row update — what a hand-built record or
// a log written before deltas holds — is the same format, not a second one.

// ErrChainCorrupt reports a page record that does not fit the page it is
// applied to: its slot or byte range lies outside the page's records, or the
// bytes it is about to replace are not the ones it logged.
var ErrChainCorrupt = errors.New("wal: record does not match the page")

// SetUpdate makes r's payloads the delta that turns the row old into the row
// new. OldData and NewData alias the two rows; Extra is built in scratch,
// which is returned (possibly grown) for the next call.
func (r *Record) SetUpdate(old, new, scratch []byte) []byte {
	n, head, tail := min(len(old), len(new)), 0, 0
	for head < n && old[head] == new[head] {
		head++
	}
	for tail < n-head && old[len(old)-1-tail] == new[len(new)-1-tail] {
		tail++
	}
	r.OldData, r.NewData = old[head:len(old)-tail], new[head:len(new)-tail]
	if head == 0 {
		r.Extra = nil
		return scratch
	}
	scratch = binary.AppendUvarint(scratch[:0], uint64(head))
	if key, err := leafKey(old); err == nil {
		scratch = append(scratch, old[:2+len(key)]...)
	}
	r.Extra = scratch
	return scratch
}

// leafKey returns the key of a leaf record, or of a prefix of one that holds
// its whole key header.
func leafKey(rec []byte) ([]byte, error) {
	if len(rec) < 2 || len(rec) < 2+int(binary.LittleEndian.Uint16(rec)) {
		return nil, fmt.Errorf("%w: %d bytes do not hold a leaf key header", ErrChainCorrupt, len(rec))
	}
	return rec[2 : 2+binary.LittleEndian.Uint16(rec)], nil
}

// UpdateHead returns the offset within the row at which an update record's
// middles begin, and the key header Extra carries after it (nil if none).
func (r *Record) UpdateHead() (int, []byte, error) {
	if len(r.Extra) == 0 {
		return 0, nil, nil
	}
	head, n := binary.Uvarint(r.Extra)
	if n <= 0 || head > page.MaxRecordSize {
		return 0, nil, fmt.Errorf("%w: update offset unreadable", ErrChainCorrupt)
	}
	return int(head), r.Extra[n:], nil
}

// RowKey returns the key of the row an insert, delete or update record
// touched. The returned slice aliases the record.
func (r *Record) RowKey() ([]byte, error) {
	switch r.Type {
	case TypeInsert:
		return leafKey(r.NewData)
	case TypeDelete:
		return leafKey(r.OldData)
	case TypeUpdate:
		head, hdr, err := r.UpdateHead()
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 && head == 0 {
			hdr = r.OldData
		}
		return leafKey(hdr)
	}
	return nil, fmt.Errorf("wal: %v record at %v names no row", r.Type, r.LSN)
}

// RowBefore returns the row as it was before update record r, given the row
// as r left it — which is what logical undo finds under the key while it
// holds the row's lock. The result is a fresh slice.
func (r *Record) RowBefore(after []byte) ([]byte, error) {
	head, err := r.middleAt(after, r.NewData)
	if err != nil {
		return nil, err
	}
	before := make([]byte, 0, len(after)-len(r.NewData)+len(r.OldData))
	before = append(append(before, after[:head]...), r.OldData...)
	return append(before, after[head+len(r.NewData):]...), nil
}

// middleAt checks that row holds mid where update record r says its middles
// lie and returns that offset.
func (r *Record) middleAt(row, mid []byte) (int, error) {
	head, _, err := r.UpdateHead()
	if err != nil {
		return 0, err
	}
	if head+len(mid) > len(row) {
		return 0, fmt.Errorf("%w: update of bytes [%d,%d) of a %d-byte row", ErrChainCorrupt, head, head+len(mid), len(row))
	}
	if !bytes.Equal(row[head:head+len(mid)], mid) {
		return 0, fmt.Errorf("%w: row bytes [%d,%d) are not the ones the update logged", ErrChainCorrupt, head, head+len(mid))
	}
	return head, nil
}

// spliceUpdate replaces from with to in the slot update record r names, in
// place, after checking that the slot holds from there.
func spliceUpdate(p *page.Page, r *Record, from, to []byte) error {
	row, err := p.Get(int(r.Slot))
	if err != nil {
		return err
	}
	head, err := r.middleAt(row, from)
	if err != nil {
		return err
	}
	return p.SpliceAt(int(r.Slot), head, len(from), to)
}

// Compensation returns the CLR that physically reverses page record r at its
// slot (aliasing r's payloads), or nil when r changed no content: a format is
// undone by the preformat restore before it, an image changed nothing.
func (r *Record) Compensation() (*Record, error) {
	clr := &Record{Type: TypeCLR, PageID: r.PageID, ObjectID: r.ObjectID, Slot: r.Slot}
	switch r.Type {
	case TypeInsert:
		clr.CLRType, clr.OldData = TypeDelete, r.NewData
	case TypeDelete:
		clr.CLRType, clr.NewData = TypeInsert, r.OldData
	case TypeUpdate:
		clr.CLRType, clr.OldData, clr.NewData, clr.Extra = TypeUpdate, r.NewData, r.OldData, r.Extra
	case TypePreformat:
		// Restoring the saved prior image is exactly the compensation for
		// the reformat sequence.
		clr.CLRType, clr.OldData = TypePreformat, r.OldData
	case TypeFormat, TypeImage:
		return nil, nil
	default:
		return nil, fmt.Errorf("wal: no physical compensation for a %v record", r.Type)
	}
	return clr, nil
}
