// Package page implements the fixed-size slotted data page that every
// on-disk structure in the engine (B-Trees, allocation maps, the catalog)
// is built from, mirroring the SQL Server storage engine described in §2 of
// the paper. Each page carries a pageLSN — the LSN of the last log record
// that modified it — which is the anchor of the per-page log chain that
// PreparePageAsOf walks backwards (§4.1), and a lastImageLSN anchoring the
// chain of periodic full-page-image log records (§6.1).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed page size in bytes (8 KiB, as in SQL Server).
const Size = 8192

// ID identifies a page within the database file. Page 0 is the boot page.
type ID uint32

// InvalidID is the sentinel for "no page".
const InvalidID ID = 0xFFFFFFFF

// Type tags the content of a page.
type Type uint8

const (
	TypeFree     Type = 0 // never formatted or deallocated
	TypeBoot     Type = 1 // page 0: database boot block
	TypeAllocMap Type = 2 // allocation bitmap page
	TypeLeaf     Type = 3 // B-Tree leaf
	TypeInternal Type = 4 // B-Tree internal node
)

func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeBoot:
		return "boot"
	case TypeAllocMap:
		return "allocmap"
	case TypeLeaf:
		return "leaf"
	case TypeInternal:
		return "internal"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header layout (48 bytes):
//
//	off  size  field
//	0    4     page ID
//	4    1     page type
//	5    1     level (B-Tree level; 0 = leaf)
//	6    2     slot count
//	8    2     free-space lower bound (end of slot array)
//	10   2     free-space upper bound (start of record heap)
//	12   8     pageLSN
//	20   8     lastImageLSN (newest full-page-image log record; 0 = none)
//	28   4     next page (leaf chain; InvalidID = none)
//	32   4     modCount (modifications since format; drives image-every-N)
//	36   4     checksum (CRC32 of payload, stamped by WriteChecksum)
//	40   8     reserved
const (
	headerSize      = 48
	offID           = 0
	offType         = 4
	offLevel        = 5
	offSlotCount    = 6
	offFreeLower    = 8
	offFreeUpper    = 10
	offPageLSN      = 12
	offLastImageLSN = 20
	offNextPage     = 28
	offModCount     = 32
	offChecksum     = 36
)

const slotSize = 4 // {offset uint16, length uint16}

// MaxRecordSize is the largest record that fits on a freshly formatted page.
const MaxRecordSize = Size - headerSize - slotSize

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: slot out of range")
	ErrTooLarge    = errors.New("page: record exceeds maximum size")
	ErrBadChecksum = errors.New("page: checksum mismatch")
	ErrBadSplice   = errors.New("page: splice range outside the record")
)

// Page is an 8 KiB buffer with slotted-page accessors. The zero value is
// unusable; obtain pages with New or wrap an existing buffer with FromBytes.
type Page struct {
	buf []byte
}

// New allocates a zeroed page. It is not formatted; call Format.
func New() *Page {
	return &Page{buf: make([]byte, Size)}
}

// FromBytes wraps buf (which must be exactly Size bytes) as a Page.
// The page aliases buf; mutations are visible to the caller.
func FromBytes(buf []byte) *Page {
	if len(buf) != Size {
		panic(fmt.Sprintf("page: FromBytes with %d bytes, want %d", len(buf), Size))
	}
	return &Page{buf: buf}
}

// Bytes returns the underlying buffer. Callers must treat it as owned by
// the page except when serializing it for I/O or logging.
func (p *Page) Bytes() []byte { return p.buf }

// CopyFrom replaces the entire content of p with that of src.
func (p *Page) CopyFrom(src []byte) {
	if len(src) != Size {
		panic(fmt.Sprintf("page: CopyFrom with %d bytes, want %d", len(src), Size))
	}
	copy(p.buf, src)
}

// Clone returns an independent copy of the page.
func (p *Page) Clone() *Page {
	q := New()
	copy(q.buf, p.buf)
	return q
}

// Format initializes the page as an empty page of the given type.
// It clears all slots and resets the LSN fields and mod counter.
func (p *Page) Format(id ID, t Type, level uint8) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint32(p.buf[offID:], uint32(id))
	p.buf[offType] = byte(t)
	p.buf[offLevel] = level
	p.setSlotCount(0)
	p.setFreeLower(headerSize)
	p.setFreeUpper(Size)
	p.SetNextPage(InvalidID)
}

// ID returns the page's self-identifying page number.
func (p *Page) ID() ID { return ID(binary.LittleEndian.Uint32(p.buf[offID:])) }

// Type returns the page type tag.
func (p *Page) Type() Type { return Type(p.buf[offType]) }

// Level returns the B-Tree level (0 for leaves).
func (p *Page) Level() uint8 { return p.buf[offLevel] }

// PageLSN returns the LSN of the last log record applied to this page.
func (p *Page) PageLSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offPageLSN:]) }

// SetPageLSN stamps the page with the LSN of the record just applied.
func (p *Page) SetPageLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offPageLSN:], lsn) }

// LastImageLSN returns the LSN of the newest full-page-image log record for
// this page, or 0 if none has been logged since the last format.
func (p *Page) LastImageLSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLastImageLSN:]) }

// SetLastImageLSN records the newest full-page-image log record.
func (p *Page) SetLastImageLSN(lsn uint64) {
	binary.LittleEndian.PutUint64(p.buf[offLastImageLSN:], lsn)
}

// NextPage returns the leaf-chain successor.
func (p *Page) NextPage() ID { return ID(binary.LittleEndian.Uint32(p.buf[offNextPage:])) }

// SetNextPage sets the leaf-chain successor.
func (p *Page) SetNextPage(id ID) { binary.LittleEndian.PutUint32(p.buf[offNextPage:], uint32(id)) }

// ModCount returns the number of modifications applied since format.
func (p *Page) ModCount() uint32 { return binary.LittleEndian.Uint32(p.buf[offModCount:]) }

// SetModCount sets the modification counter.
func (p *Page) SetModCount(n uint32) { binary.LittleEndian.PutUint32(p.buf[offModCount:], n) }

// BumpModCount increments the modification counter and returns the new value.
func (p *Page) BumpModCount() uint32 {
	n := p.ModCount() + 1
	p.SetModCount(n)
	return n
}

func (p *Page) slotCount() int { return int(binary.LittleEndian.Uint16(p.buf[offSlotCount:])) }
func (p *Page) setSlotCount(n int) {
	binary.LittleEndian.PutUint16(p.buf[offSlotCount:], uint16(n))
}
func (p *Page) freeLower() int { return int(binary.LittleEndian.Uint16(p.buf[offFreeLower:])) }
func (p *Page) setFreeLower(n int) {
	binary.LittleEndian.PutUint16(p.buf[offFreeLower:], uint16(n))
}
func (p *Page) freeUpper() int {
	// Size (8192) does not fit in uint16; store Size as 0.
	v := int(binary.LittleEndian.Uint16(p.buf[offFreeUpper:]))
	if v == 0 {
		return Size
	}
	return v
}
func (p *Page) setFreeUpper(n int) {
	if n == Size {
		n = 0
	}
	binary.LittleEndian.PutUint16(p.buf[offFreeUpper:], uint16(n))
}

func (p *Page) slotAt(i int) (off, length int) {
	base := headerSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlotAt(i, off, length int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// NumSlots returns the number of records on the page.
func (p *Page) NumSlots() int { return p.slotCount() }

// FreeSpace returns the bytes available for one more record, accounting for
// its slot entry. Fragmented space is reclaimed lazily by compaction.
func (p *Page) FreeSpace() int {
	contiguous := p.freeUpper() - p.freeLower()
	free := contiguous + p.fragmented()
	free -= slotSize
	if free < 0 {
		return 0
	}
	return free
}

// HasSpace reports whether a record of n bytes fits (equivalent to
// FreeSpace() >= n), but skips the per-slot fragmentation scan when the
// contiguous gap alone suffices — the common case on insert-heavy pages,
// where FreeSpace shows up as a per-insert O(slots) walk.
func (p *Page) HasSpace(n int) bool {
	if p.freeUpper()-p.freeLower()-slotSize >= n {
		return true
	}
	return p.FreeSpace() >= n
}

// fragmented returns reclaimable bytes not in the contiguous gap.
func (p *Page) fragmented() int {
	used := 0
	n := p.slotCount()
	for i := 0; i < n; i++ {
		_, l := p.slotAt(i)
		used += l
	}
	return (Size - p.freeUpper()) - used
}

// Get returns the record stored in slot i. The returned slice aliases the
// page buffer; callers must copy it if they retain it across modifications.
func (p *Page) Get(i int) ([]byte, error) {
	if i < 0 || i >= p.slotCount() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slotCount())
	}
	off, l := p.slotAt(i)
	return p.buf[off : off+l], nil
}

// MustGet is Get for indexes known to be valid; it panics on error.
func (p *Page) MustGet(i int) []byte {
	r, err := p.Get(i)
	if err != nil {
		panic(err)
	}
	return r
}

// LastPlaced reports whether slot i holds the record most recently placed on
// the page. InsertAt (and an UpdateAt that grows a record) put the record at
// the free-space upper bound, so the slot whose offset equals that bound is
// the newest; no header field is needed and every copy of the page agrees.
func (p *Page) LastPlaced(i int) bool {
	if i < 0 || i >= p.slotCount() {
		return false
	}
	off, _ := p.slotAt(i)
	return off == p.freeUpper()
}

// InsertAt inserts rec as slot i, shifting later slots up by one.
// Inserting at i == NumSlots appends.
func (p *Page) InsertAt(i int, rec []byte) error {
	n := p.slotCount()
	if i < 0 || i > n {
		return fmt.Errorf("%w: insert at %d of %d", ErrBadSlot, i, n)
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	need := len(rec) + slotSize
	if p.freeUpper()-p.freeLower() < need {
		if p.fragmented() > 0 {
			p.compact()
		}
		if p.freeUpper()-p.freeLower() < need {
			return fmt.Errorf("%w: need %d, have %d", ErrPageFull, need, p.freeUpper()-p.freeLower())
		}
	}
	// Place record at the top of the heap.
	newUpper := p.freeUpper() - len(rec)
	copy(p.buf[newUpper:], rec)
	p.setFreeUpper(newUpper)
	// Shift slot entries [i, n) up one position.
	base := headerSize + i*slotSize
	end := headerSize + n*slotSize
	copy(p.buf[base+slotSize:end+slotSize], p.buf[base:end])
	p.setSlotAt(i, newUpper, len(rec))
	p.setSlotCount(n + 1)
	p.setFreeLower(headerSize + (n+1)*slotSize)
	return nil
}

// DeleteAt removes slot i, shifting later slots down, and returns a copy of
// the removed record.
func (p *Page) DeleteAt(i int) ([]byte, error) {
	n := p.slotCount()
	if i < 0 || i >= n {
		return nil, fmt.Errorf("%w: delete at %d of %d", ErrBadSlot, i, n)
	}
	off, l := p.slotAt(i)
	rec := make([]byte, l)
	copy(rec, p.buf[off:off+l])
	// If the record is adjacent to the free gap, grow the gap directly.
	if off == p.freeUpper() {
		p.setFreeUpper(off + l)
	}
	base := headerSize + i*slotSize
	end := headerSize + n*slotSize
	copy(p.buf[base:], p.buf[base+slotSize:end])
	p.setSlotCount(n - 1)
	p.setFreeLower(headerSize + (n-1)*slotSize)
	return rec, nil
}

// UpdateAt replaces the record in slot i with rec.
func (p *Page) UpdateAt(i int, rec []byte) error {
	l := 0
	if i >= 0 && i < p.slotCount() {
		_, l = p.slotAt(i)
	}
	return p.SpliceAt(i, 0, l, rec)
}

// FitsAt reports whether the record in slot i can become n bytes long, in
// place or re-placed into free space, fragmentation and its own bytes.
func (p *Page) FitsAt(i, n int) bool {
	_, l := p.slotAt(i)
	return n <= l || p.freeUpper()-p.freeLower()+p.fragmented()+l >= n
}

// SpliceAt replaces the oldLen bytes at offset at of the record in slot i
// with mid. A record that does not grow stays where it lies (the tail closes
// up, the excess becomes fragmentation; a same-length splice writes len(mid)
// bytes and nothing else); one that grows is re-placed at the free-space
// upper bound, after a compaction if the contiguous gap is too small.
func (p *Page) SpliceAt(i, at, oldLen int, mid []byte) error {
	if i < 0 || i >= p.slotCount() {
		return fmt.Errorf("%w: splice at %d of %d", ErrBadSlot, i, p.slotCount())
	}
	off, l := p.slotAt(i)
	if at < 0 || oldLen < 0 || at+oldLen > l {
		return fmt.Errorf("%w: bytes [%d,%d) of a %d-byte record", ErrBadSplice, at, at+oldLen, l)
	}
	newLen := l - oldLen + len(mid)
	if newLen > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, newLen)
	}
	head, tail := p.buf[off:off+at], p.buf[off+at+oldLen:off+l]
	if newLen <= l {
		copy(p.buf[off+at+len(mid):], tail)
		copy(p.buf[off+at:], mid)
		p.setSlotAt(i, off, newLen)
		return nil
	}
	if !p.FitsAt(i, newLen) {
		return fmt.Errorf("%w: update needs %d", ErrPageFull, newLen)
	}
	if p.freeUpper()-p.freeLower() < newLen {
		// Compaction drops the old bytes: keep the two ends the new record reuses.
		kept := append(append(make([]byte, 0, len(head)+len(tail)), head...), tail...)
		head, tail = kept[:at], kept[at:]
		p.setSlotAt(i, off, 0)
		p.compact()
	}
	newUpper := p.freeUpper() - newLen
	copy(p.buf[newUpper:], head)
	copy(p.buf[newUpper+at:], mid)
	copy(p.buf[newUpper+at+len(mid):], tail)
	p.setFreeUpper(newUpper)
	p.setSlotAt(i, newUpper, newLen)
	return nil
}

// compact rewrites the record heap to squeeze out fragmentation.
func (p *Page) compact() {
	n := p.slotCount()
	type ent struct{ slot, off, len int }
	ents := make([]ent, 0, n)
	for i := 0; i < n; i++ {
		off, l := p.slotAt(i)
		ents = append(ents, ent{i, off, l})
	}
	// Copy records out, then re-lay them from the top.
	scratch := make([]byte, 0, Size-headerSize)
	offs := make([]int, n)
	for i, e := range ents {
		offs[i] = len(scratch)
		scratch = append(scratch, p.buf[e.off:e.off+e.len]...)
	}
	upper := Size - len(scratch)
	copy(p.buf[upper:], scratch)
	for i, e := range ents {
		p.setSlotAt(e.slot, upper+offs[i], e.len)
	}
	p.setFreeUpper(upper)
}

// WriteChecksum stamps the page checksum. Call immediately before disk I/O.
func (p *Page) WriteChecksum() {
	binary.LittleEndian.PutUint32(p.buf[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.buf)
	binary.LittleEndian.PutUint32(p.buf[offChecksum:], sum)
}

// VerifyChecksum validates the stamped checksum. A page of all zero bytes
// (never written) passes, matching freshly grown files.
func (p *Page) VerifyChecksum() error {
	stored := binary.LittleEndian.Uint32(p.buf[offChecksum:])
	if stored == 0 && p.Type() == TypeFree {
		return nil
	}
	binary.LittleEndian.PutUint32(p.buf[offChecksum:], 0)
	sum := crc32.ChecksumIEEE(p.buf)
	binary.LittleEndian.PutUint32(p.buf[offChecksum:], stored)
	if sum != stored {
		return fmt.Errorf("%w: page %d", ErrBadChecksum, p.ID())
	}
	return nil
}
