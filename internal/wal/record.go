// Package wal implements the ARIES-style write-ahead log described in §2 of
// the paper, including the extensions of §4.2 that make page-oriented
// physical undo possible:
//
//  1. every page-modifying record carries PrevPageLSN, back-linking the
//     complete modification history of each page;
//  2. preformat records written at page re-allocation store the prior page
//     image, joining the new format chain to the old one (paper Figure 2);
//  3. compensation log records (CLRs) carry undo information, so pages can
//     be rewound across rolled-back transactions;
//  4. structure-modification deletes carry the deleted row images;
//  5. optional full page images every Nth modification, chained among
//     themselves via PrevImageLSN so undo can skip log regions (§6.1).
//
// LSNs are byte offsets into the log plus one, so they are strictly
// monotonic and a record can be fetched by LSN with a single random read.
//
// The write path is a pipelined group commit (see Manager): appends frame
// records — varint-encoded, checksummed — outside the manager lock and copy
// them into a double-buffered in-memory tail, and committers wait in Flush,
// which batches many commits into one physical log write. Random reads are served
// through a sharded second-chance block cache so concurrent snapshot-undo
// and recovery readers do not contend.
//
// The read side offers two paths. Manager.Read fetches one record by LSN
// through the shared block cache, returning a privately-owned Record — the
// convenient form for occasional lookups. ChainReader is the hot path for
// backward chain walks (per-page PrevPageLSN chains, per-transaction
// PrevLSN chains, §6.1 image chains): it pins decoded block spans locally,
// decodes records in place into a reusable scratch Record (zero allocations
// per hop in the steady state), and reads the previous block in the same
// physical I/O as the current one, so long chains stream backwards through
// the log instead of ping-ponging the shared cache.
//
// The manager also keeps a sparse time→LSN index (TimeSample): every
// timeSampleEvery bytes of log, one commit record contributes a
// (wallclock, commitLSN) sample. TimeFloor binary-searches the samples so a
// wall-clock target resolves to a narrow log window; checkpoints persist
// the samples (CheckpointData.Times) and Open reseeds the index from the
// checkpoint chain.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// LSN is a log sequence number: the record's byte offset in the log plus 1.
type LSN uint64

// NilLSN means "no record".
const NilLSN LSN = 0

func (l LSN) String() string { return fmt.Sprintf("lsn:%d", uint64(l)) }

// Type identifies the kind of a log record.
type Type uint8

const (
	// Transaction control records.
	TypeBegin  Type = 1 // transaction started; WallClock set
	TypeCommit Type = 2 // transaction committed; WallClock set (used by SplitLSN search, §5.1)
	TypeAbort  Type = 3 // rollback completed

	// Page modification records (physiological: slot-granular within a page).
	TypeInsert Type = 10 // NewData inserted at Slot
	TypeDelete Type = 11 // record at Slot removed; OldData = deleted row image (§4.2 extension 3)
	TypeUpdate Type = 12 // bytes of the record at Slot: OldData -> NewData at the offset in Extra (see update.go)

	// Page lifecycle records.
	TypeFormat    Type = 20 // page formatted empty; Extra = [pageType, level]
	TypePreformat Type = 21 // prior page image saved before re-allocation (§4.2 extension 1); OldData = full image
	TypeImage     Type = 22 // periodic full page image (§6.1); NewData = full image; PrevImageLSN chains images

	// Allocation map record: one byte of an allocation bitmap page changed.
	TypeAllocBits Type = 30 // Slot = byte index within bitmap area; OldData/NewData = 1 byte each

	// Compensation record written during rollback; carries undo info
	// (§4.2 extension 2). CLRType holds the compensating operation's type.
	TypeCLR Type = 40

	// Checkpoints: flush-all checkpoint delimited by begin/end records.
	// End carries WallClock, the active-transaction table, and a pointer to
	// the previous checkpoint so the SplitLSN search (§5.1) can walk
	// checkpoints backwards by wall-clock time.
	TypeCheckpointBegin Type = 50
	TypeCheckpointEnd   Type = 51
)

func (t Type) String() string {
	switch t {
	case TypeBegin:
		return "begin"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeUpdate:
		return "update"
	case TypeFormat:
		return "format"
	case TypePreformat:
		return "preformat"
	case TypeImage:
		return "image"
	case TypeAllocBits:
		return "allocbits"
	case TypeCLR:
		return "clr"
	case TypeCheckpointBegin:
		return "ckpt-begin"
	case TypeCheckpointEnd:
		return "ckpt-end"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// NoPage marks records that do not modify a page.
const NoPage uint32 = 0xFFFFFFFF

// FlagNTA, the one record flag, marks records logged inside a nested top
// action (a B-Tree structure modification). A transaction chain cut mid-NTA
// — by a crash, a SplitLSN or a restore target landing between an SMO's
// records and its terminating dummy CLR — must undo these records physically
// (page-oriented), never logically: they include row moves and internal-node
// separators that logical undo cannot re-locate.
const FlagNTA uint8 = 1 << 0

// Record is a single log record. Fields irrelevant to a record's Type are
// left at their zero values and encode compactly.
type Record struct {
	// LSN is assigned by Manager.Append and not serialized in the body.
	LSN LSN

	Type  Type
	TxnID uint64 // 0 = system transaction outside any user transaction

	// PrevLSN links the previous record of the same transaction (undo chain).
	PrevLSN LSN

	// PageID and ObjectID locate the modification: PageID is the page
	// modified, ObjectID the root page of the B-Tree it belongs to (used by
	// logical undo to re-locate rows that may have moved between pages).
	PageID   uint32
	ObjectID uint32

	// PrevPageLSN is the page's pageLSN before this modification: the
	// per-page chain PreparePageAsOf walks backwards (§4.1).
	PrevPageLSN LSN

	// UndoNextLSN, on CLRs, is the next record of the transaction to undo.
	UndoNextLSN LSN

	// PrevImageLSN, on TypeImage records, links the previous full image of
	// the same page (the skip chain of §6.1).
	PrevImageLSN LSN

	// CLRType, on CLRs, is the page-operation type this CLR performs
	// (insert/delete/update), with Slot/OldData/NewData as for that type.
	CLRType Type

	// Flags carries FlagNTA.
	Flags uint8

	// Slot is the slot index for page operations, or the byte index for
	// allocation bitmap changes.
	Slot uint16

	// WallClock is the commit / begin / checkpoint wall-clock time in
	// nanoseconds since the Unix epoch. The SplitLSN search (§5.1) maps a
	// user-supplied time to an LSN using commit and checkpoint records.
	WallClock int64

	// OldData is the undo image; NewData the redo image; Extra carries
	// type-specific metadata (format parameters, checkpoint payloads).
	OldData []byte
	NewData []byte
	Extra   []byte
}

// Time returns WallClock as a time.Time.
func (r *Record) Time() time.Time { return time.Unix(0, r.WallClock) }

// IsPageOp reports whether the record modifies a page and participates in
// the per-page chain.
func (r *Record) IsPageOp() bool {
	switch r.Type {
	case TypeInsert, TypeDelete, TypeUpdate, TypeFormat, TypePreformat, TypeImage, TypeAllocBits, TypeCLR:
		return true
	}
	return false
}

// Record bodies are varint-encoded: three fixed identification bytes
// (Type, CLRType, Flags) followed by the numeric fields as uvarints
// (WallClock as a zigzag varint — virtual clocks can start before the
// epoch) and the three payloads, each preceded by a uvarint length. The
// fixed encoding this replaced spent ~90 bytes per record on mostly-small
// fields; a typical slot operation now carries ~25 bytes of header, which
// directly cuts log volume, commit-path flush bandwidth and CRC work.

// uvlen returns the uvarint width of v.
func uvlen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// vlen returns the zigzag varint width of v.
func vlen(v int64) int {
	return uvlen(uint64(v)<<1 ^ uint64(v>>63))
}

// marshaledSize returns the body size of the record (excluding framing).
func (r *Record) marshaledSize() int {
	return 3 +
		uvlen(r.TxnID) +
		uvlen(uint64(r.PrevLSN)) +
		uvlen(uint64(r.PageID)) +
		uvlen(uint64(r.ObjectID)) +
		uvlen(uint64(r.PrevPageLSN)) +
		uvlen(uint64(r.UndoNextLSN)) +
		uvlen(uint64(r.PrevImageLSN)) +
		uvlen(uint64(r.Slot)) +
		vlen(r.WallClock) +
		uvlen(uint64(len(r.OldData))) + len(r.OldData) +
		uvlen(uint64(len(r.NewData))) + len(r.NewData) +
		uvlen(uint64(len(r.Extra))) + len(r.Extra)
}

// ApproxSize returns the record's on-disk footprint including framing.
func (r *Record) ApproxSize() int { return r.marshaledSize() + frameHeader }

// marshal appends the record body to dst and returns the extended slice.
func (r *Record) marshal(dst []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		dst = append(dst, tmp[:n]...)
	}
	dst = append(dst, byte(r.Type), byte(r.CLRType), r.Flags)
	putU(r.TxnID)
	putU(uint64(r.PrevLSN))
	putU(uint64(r.PageID))
	putU(uint64(r.ObjectID))
	putU(uint64(r.PrevPageLSN))
	putU(uint64(r.UndoNextLSN))
	putU(uint64(r.PrevImageLSN))
	putU(uint64(r.Slot))
	n := binary.PutVarint(tmp[:], r.WallClock)
	dst = append(dst, tmp[:n]...)
	for _, b := range [][]byte{r.OldData, r.NewData, r.Extra} {
		putU(uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// unmarshal parses a record body into a fresh Record. The returned record's
// byte slices alias src; Manager.Read passes a private copy.
func unmarshal(src []byte) (*Record, error) {
	r := &Record{}
	if err := unmarshalInto(r, src); err != nil {
		return nil, err
	}
	return r, nil
}

// unmarshalInto parses a record body into r, overwriting every field — the
// allocation-free decode path ChainReader drives with a reusable scratch
// record. r's byte slices alias src.
func unmarshalInto(r *Record, src []byte) error {
	if len(src) < 3 {
		return fmt.Errorf("wal: record body too short: %d bytes", len(src))
	}
	*r = Record{}
	r.Type = Type(src[0])
	r.CLRType = Type(src[1])
	r.Flags = src[2]
	if r.Flags&^FlagNTA != 0 {
		return fmt.Errorf("wal: record flags %#x", r.Flags)
	}
	off := 3
	var bad bool
	// getU reads one uvarint no larger than max, in its shortest encoding:
	// whatever decodes must be exactly what marshal would have written.
	getU := func(max uint64) uint64 {
		v, n := binary.Uvarint(src[off:])
		if n <= 0 || v > max || (n > 1 && src[off+n-1] == 0) {
			bad = true
			return 0
		}
		off += n
		return v
	}
	r.TxnID = getU(math.MaxUint64)
	r.PrevLSN = LSN(getU(math.MaxUint64))
	r.PageID = uint32(getU(math.MaxUint32))
	r.ObjectID = uint32(getU(math.MaxUint32))
	r.PrevPageLSN = LSN(getU(math.MaxUint64))
	r.UndoNextLSN = LSN(getU(math.MaxUint64))
	r.PrevImageLSN = LSN(getU(math.MaxUint64))
	r.Slot = uint16(getU(math.MaxUint16))
	if wc, n := binary.Varint(src[off:]); n > 0 && (n == 1 || src[off+n-1] != 0) {
		r.WallClock = wc
		off += n
	} else {
		bad = true
	}
	if bad {
		return fmt.Errorf("wal: unreadable record header at %d", off)
	}
	for _, dst := range [...]*[]byte{&r.OldData, &r.NewData, &r.Extra} {
		n := getU(math.MaxUint64)
		if bad || n > uint64(len(src)-off) {
			return fmt.Errorf("wal: field length unreadable or past the body's end at %d", off)
		}
		if n > 0 {
			*dst = src[off : off+int(n)]
		}
		off += int(n)
	}
	if off != len(src) {
		// Nothing follows Extra; decoding past trailing bytes silently would
		// drop what they meant.
		return fmt.Errorf("wal: %d bytes trail the last field of a %v record body", len(src)-off, r.Type)
	}
	return nil
}

// frame layout: u32 bodyLen | u32 crc32(body) | body
const frameHeader = 8

// FrameHeaderSize is the byte size of a frame's fixed prefix (body length +
// body CRC) — the framing every consumer of raw log bytes shares.
const FrameHeaderSize = frameHeader

// MaxRecordBytes bounds a single record body; a larger claimed length marks
// a corrupt or torn frame everywhere frames are parsed.
const MaxRecordBytes = 64 << 20

// FrameSize returns the total framed size (header + body) of the frame
// whose header begins buf, when enough bytes are present to tell and the
// claimed length is plausible. It does not validate the body.
func FrameSize(buf []byte) (int, bool) {
	if len(buf) < frameHeader {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n == 0 || n > MaxRecordBytes {
		return 0, false
	}
	return frameHeader + n, true
}

func frame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = r.marshal(dst)
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

// ErrFrameCorrupt reports a frame whose header is implausible or whose body
// fails its CRC — a shipped batch (or a log file) corrupted in transit, as
// opposed to merely cut short.
var ErrFrameCorrupt = errors.New("wal: corrupt frame")

// NextFrame examines the head of a raw frame stream (the wire format of a
// shipped batch, identical to the on-disk log). It returns the first
// frame's body and total framed size when a complete frame is present;
// ok=false when the buffer ends mid-frame (the caller waits for more bytes,
// or — at a torn tail — truncates to this boundary and resumes);
// ErrFrameCorrupt when the bytes cannot be a frame prefix at all.
func NextFrame(buf []byte) (body []byte, size int, ok bool, err error) {
	if len(buf) < frameHeader {
		return nil, 0, false, nil
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[:4]))
	wantCRC := binary.LittleEndian.Uint32(buf[4:])
	if bodyLen == 0 || bodyLen > MaxRecordBytes {
		return nil, 0, false, fmt.Errorf("%w: implausible length %d", ErrFrameCorrupt, bodyLen)
	}
	if len(buf) < frameHeader+bodyLen {
		return nil, 0, false, nil
	}
	body = buf[frameHeader : frameHeader+bodyLen]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, 0, false, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return body, frameHeader + bodyLen, true, nil
}

// DecodeBody parses a frame body (as returned by NextFrame) into a fresh
// Record. The record's byte slices alias src.
func DecodeBody(src []byte) (*Record, error) { return unmarshal(src) }

// ATTEntry is one active transaction in a checkpoint's transaction table.
type ATTEntry struct {
	TxnID    uint64
	LastLSN  LSN
	BeginLSN LSN
}

// CheckpointData is the payload of a TypeCheckpointEnd record.
type CheckpointData struct {
	BeginLSN LSN // matching TypeCheckpointBegin record
	PrevEnd  LSN // previous checkpoint's end record (0 = none)
	ATT      []ATTEntry
	// Times piggybacks the time→LSN samples taken since the previous
	// checkpoint (see TimeSample). Open reads them from the ckpt records of
	// the node's control file, which hold the same samples; the copy here is
	// what Open reads when it must walk the checkpoint chain instead — a
	// node without the control file, or checkpoints it lacks after a crash.
	Times []TimeSample
	// TLI and History carry the checkpointing node's timeline lineage, so
	// replicas replaying the stream adopt promotions they have applied.
	// TLI is 1 or later.
	TLI     TimelineID
	History TimelineHistory
	// DPT is the dirty-page table: each page that was still dirty in the
	// buffer pool when the checkpoint ended and held a change logged before
	// BeginLSN, with its recLSN — the first such change. Redo starts at
	// RedoStart. A flush-all checkpoint (DB.Checkpoint) has none. The
	// section follows the timeline section.
	DPT []DirtyPage
}

// DirtyPage is one entry of a checkpoint's dirty-page table.
type DirtyPage struct {
	PageID uint32
	RecLSN LSN
}

// RedoStart is where crash recovery from this checkpoint starts its log
// scan: the begin record, or the oldest recLSN in the dirty-page table if
// that is older.
func (d CheckpointData) RedoStart() LSN {
	start := d.BeginLSN
	for _, e := range d.DPT {
		if e.RecLSN < start {
			start = e.RecLSN
		}
	}
	return start
}

// EncodeCheckpoint serializes d for Record.Extra.
func EncodeCheckpoint(d CheckpointData) []byte {
	buf := make([]byte, 0, 32+24*len(d.ATT)+16*len(d.Times)+16*len(d.DPT))
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(d.BeginLSN))
	put(uint64(d.PrevEnd))
	put(uint64(len(d.ATT)))
	for _, e := range d.ATT {
		put(e.TxnID)
		put(uint64(e.LastLSN))
		put(uint64(e.BeginLSN))
	}
	put(uint64(len(d.Times)))
	for _, s := range d.Times {
		put(uint64(s.WallClock))
		put(uint64(s.LSN))
	}
	put(uint64(d.TLI))
	put(uint64(len(d.History)))
	for _, f := range d.History {
		put(uint64(f.TLI))
		put(uint64(f.End))
	}
	if len(d.DPT) > 0 {
		put(uint64(len(d.DPT)))
		for _, e := range d.DPT {
			put(uint64(e.PageID))
			put(uint64(e.RecLSN))
		}
	}
	return buf
}

// DecodeCheckpoint parses a TypeCheckpointEnd payload: the ATT, the time
// samples and the timeline section, then the dirty-page table, which a
// flush-all checkpoint writes as no section at all. A payload missing a
// section, a timeline of 0, or a malformed table — a count the bytes cannot
// hold, a recLSN of 0 or not below BeginLSN — is an error.
func DecodeCheckpoint(b []byte) (CheckpointData, error) {
	var d CheckpointData
	if len(b) < 24 {
		return d, fmt.Errorf("wal: checkpoint payload too short: %d", len(b))
	}
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	d.BeginLSN = LSN(get(0))
	d.PrevEnd = LSN(get(8))
	if get(16) > uint64(len(b)-24)/24 {
		return d, fmt.Errorf("wal: checkpoint payload size %d for %d entries", len(b), get(16))
	}
	n := int(get(16))
	for i := 0; i < n; i++ {
		off := 24 + 24*i
		d.ATT = append(d.ATT, ATTEntry{
			TxnID:    get(off),
			LastLSN:  LSN(get(off + 8)),
			BeginLSN: LSN(get(off + 16)),
		})
	}
	rest := b[24+24*n:]
	if len(rest) < 8 {
		return d, fmt.Errorf("wal: checkpoint payload trailer of %d bytes", len(rest))
	}
	ts := int(binary.LittleEndian.Uint64(rest))
	if uint64(ts) > uint64(len(rest)-8)/16 {
		return d, fmt.Errorf("wal: checkpoint payload trailer %d bytes for %d samples", len(rest), ts)
	}
	for i := 0; i < ts; i++ {
		off := 8 + 16*i
		d.Times = append(d.Times, TimeSample{
			WallClock: int64(binary.LittleEndian.Uint64(rest[off:])),
			LSN:       LSN(binary.LittleEndian.Uint64(rest[off+8:])),
		})
	}
	rest = rest[8+16*ts:]
	// Timeline section: tli u64 | nForks u64 | nForks × (tli u64, end u64).
	if len(rest) < 16 {
		return d, fmt.Errorf("wal: checkpoint timeline trailer of %d bytes", len(rest))
	}
	// A timeline id is 32 bits wide and never 0.
	tli := binary.LittleEndian.Uint64(rest)
	if tli == 0 || tli > math.MaxUint32 {
		return d, fmt.Errorf("wal: checkpoint timeline section for timeline %d", tli)
	}
	d.TLI = TimelineID(tli)
	hn := binary.LittleEndian.Uint64(rest[8:])
	if hn > uint64(len(rest)-16)/16 {
		return d, fmt.Errorf("wal: checkpoint timeline trailer %d bytes for %d forks", len(rest), hn)
	}
	for i := 0; i < int(hn); i++ {
		off := 16 + 16*i
		if tli = binary.LittleEndian.Uint64(rest[off:]); tli > math.MaxUint32 {
			return d, fmt.Errorf("wal: checkpoint fork of timeline %d", tli)
		}
		d.History = append(d.History, TimelineFork{
			TLI: TimelineID(tli),
			End: LSN(binary.LittleEndian.Uint64(rest[off+8:])),
		})
	}
	rest = rest[16+16*int(hn):]
	if len(rest) == 0 {
		return d, nil // flush-all checkpoint
	}
	// DPT section: n u64 | n × (page u64, recLSN u64). It is the payload's
	// last: bytes past it are an error, not padding. An empty table is
	// written as no section at all.
	if len(rest) < 8 {
		return d, fmt.Errorf("wal: checkpoint dirty-page table trailer of %d bytes", len(rest))
	}
	dn := binary.LittleEndian.Uint64(rest)
	if dn == 0 || dn > uint64(len(rest)-8)/16 || len(rest) != 8+16*int(dn) {
		return d, fmt.Errorf("wal: checkpoint dirty-page table %d bytes for %d pages", len(rest), dn)
	}
	d.DPT = make([]DirtyPage, 0, dn)
	for i := 0; i < int(dn); i++ {
		off := 8 + 16*i
		id := binary.LittleEndian.Uint64(rest[off:])
		rec := LSN(binary.LittleEndian.Uint64(rest[off+8:]))
		if id > math.MaxUint32 || rec == 0 || rec >= d.BeginLSN {
			return d, fmt.Errorf("wal: checkpoint dirty page %d with recLSN %v (begin %v)", id, rec, d.BeginLSN)
		}
		d.DPT = append(d.DPT, DirtyPage{PageID: uint32(id), RecLSN: rec})
	}
	return d, nil
}
