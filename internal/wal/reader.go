package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// chainReaderBlocks is the number of block spans a ChainReader keeps pinned.
// Backward chain walks exhibit strong block locality (a page's recent
// modifications cluster near the log tail, and LSNs strictly descend), so a
// small direct set covers the working span of a walk while keeping lookup a
// trivial linear scan.
const chainReaderBlocks = 8

// pinnedBlock is the part of one log block a reader holds: data starts at
// block offset lo, which is nonzero only when the truncation point cut the
// block when it was read.
type pinnedBlock struct {
	idx  int64 // block index, -1 when the slot is empty
	lo   int
	data []byte
}

// ChainReader is the log's reader by LSN: its load is the one place a log
// block is read by LSN and the shared block cache is filled, and
// Manager.Read is its one-shot form. It serves backward chain walks
// (per-page PrevPageLSN chains, per-transaction PrevLSN chains, image
// chains), the as-of hot path:
//
//   - records are decoded in place into one reusable scratch Record, so a
//     steady-state chain hop performs zero allocations;
//   - decoded block spans are pinned locally, so consecutive hops within a
//     block touch no shared lock at all;
//   - on a block miss it reads the *previous* block in the same physical
//     I/O (readahead in the direction the walk moves), so long chains
//     stream backwards through the log instead of issuing one random read
//     per block boundary.
//
// The Record returned by Read, including its OldData/NewData/Extra slices,
// is valid only until the next Read call on the same reader. Callers that
// need a record to outlive the next hop must copy what they keep.
//
// A ChainReader is not safe for concurrent use; acquire one per goroutine
// via Manager.ChainReader and return it with Close.
type ChainReader struct {
	m       *Manager
	rec     Record
	blocks  [chainReaderBlocks]pinnedBlock
	hand    int    // round-robin replacement cursor over blocks
	scratch []byte // spill buffer for records crossing block boundaries
	oneShot bool   // Manager.Read's reader: no previous block on a miss
}

// chainReaderPool recycles readers (and their pinned-block sets and spill
// buffers) across chain walks, so a PreparePageAsOf call allocates nothing
// in the steady state.
var chainReaderPool = sync.Pool{New: func() any { return new(ChainReader) }}

// ChainReader returns a reader for backward chain walks over this log.
// Return it with Close when the walk completes.
func (m *Manager) ChainReader() *ChainReader {
	r := chainReaderPool.Get().(*ChainReader)
	r.m = m
	r.hand = 0
	r.oneShot = false
	for i := range r.blocks {
		r.blocks[i] = pinnedBlock{idx: -1}
	}
	return r
}

// Close releases the reader back to the pool. The last Record returned by
// Read becomes invalid.
func (r *ChainReader) Close() {
	if r.m == nil {
		return
	}
	r.m = nil
	// Drop every reference into block memory so a reader parked in the pool
	// keeps no log block alive: the pinned spans, and the scratch record
	// whose byte fields alias one (unmarshalInto slices, it does not copy).
	for i := range r.blocks {
		r.blocks[i] = pinnedBlock{idx: -1}
	}
	r.rec = Record{}
	chainReaderPool.Put(r)
}

// Read decodes the record at lsn into the reader's reusable scratch record.
// The result (including byte fields, which alias pinned block memory) is
// valid until the next Read or Close on this reader.
func (r *ChainReader) Read(lsn LSN) (*Record, error) {
	body, err := r.frame(lsn)
	if err != nil {
		return nil, err
	}
	if err := unmarshalInto(&r.rec, body); err != nil {
		return nil, err
	}
	r.rec.LSN = lsn
	return &r.rec, nil
}

// frame returns the body of the record at lsn, its header and CRC checked.
// The body aliases pinned block memory or the spill buffer.
func (r *ChainReader) frame(lsn LSN) ([]byte, error) {
	if r.m == nil {
		return nil, errors.New("wal: Read on closed ChainReader")
	}
	if lsn == NilLSN {
		return nil, errors.New("wal: read of nil LSN")
	}
	if t := r.m.truncPoint(); lsn < t {
		return nil, fmt.Errorf("%w: %v < %v", ErrTruncated, lsn, t)
	}
	var hdr [frameHeader]byte
	if err := r.copyAt(hdr[:], int64(lsn-1)); err != nil {
		return nil, err
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen == 0 || bodyLen > MaxRecordBytes {
		return nil, fmt.Errorf("wal: implausible record length %d at %v", bodyLen, lsn)
	}
	body, err := r.view(int64(lsn-1)+frameHeader, int(bodyLen))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("wal: checksum mismatch at %v", lsn)
	}
	return body, nil
}

// WalkTxnChain walks a transaction's log chain newest first, from last back to
// its Begin record, and returns the Begin's LSN (NilLSN when the chain ends
// without one). fn sees every record on the way but the Begin. After a CLR the
// walk continues at its UndoNextLSN, past what the CLR compensated — or, for
// the dummy CLR that ends a nested top action, past the structure
// modification. The next LSN is taken before fn runs, so read may hand out a
// reused scratch record (ChainReader.Read). Every link must point below the
// record that holds it: one that does not fails the walk with ErrChainCorrupt
// before fn sees its record, where following it could loop forever.
//
// It is the one backward walk of a transaction: rollback and crash undo, the
// unlogged undo of a snapshot or a restore, a snapshot's lock reacquisition,
// and the as-of transaction tools all call it.
func WalkTxnChain(read func(LSN) (*Record, error), last LSN, fn func(*Record) error) (LSN, error) {
	for cur := last; cur != NilLSN; {
		rec, err := read(cur)
		if err != nil {
			return NilLSN, fmt.Errorf("wal: transaction chain read %v: %w", cur, err)
		}
		if rec.Type == TypeBegin {
			return rec.LSN, nil
		}
		next := rec.PrevLSN
		if rec.Type == TypeCLR {
			next = rec.UndoNextLSN
		}
		if next >= cur {
			return NilLSN, fmt.Errorf("%w: %v at %v links to %v, not below it", ErrChainCorrupt, rec.Type, cur, next)
		}
		if err := fn(rec); err != nil {
			return NilLSN, err
		}
		cur = next
	}
	return NilLSN, nil
}

// pinned returns the locally pinned part of block idx (data nil if none).
func (r *ChainReader) pinned(idx int64) pinnedBlock {
	for i := range r.blocks {
		if r.blocks[i].idx == idx {
			return r.blocks[i]
		}
	}
	return pinnedBlock{}
}

// pin installs a block span in the local set, replacing round-robin.
func (r *ChainReader) pin(b pinnedBlock) {
	r.blocks[r.hand] = b
	r.hand = (r.hand + 1) % chainReaderBlocks
}

// unpin drops any pinned copy of block idx (stale partial tail blocks).
func (r *ChainReader) unpin(idx int64) {
	for i := range r.blocks {
		if r.blocks[i].idx == idx {
			r.blocks[i] = pinnedBlock{idx: -1}
		}
	}
}

// block returns block idx: from the local pinned set (no locks), else the
// shared cache (one shard mutex), else a physical read.
func (r *ChainReader) block(idx int64) (pinnedBlock, error) {
	if b := r.pinned(idx); b.data != nil {
		return b, nil
	}
	if blk := r.m.cache.get(idx); blk != nil {
		b := pinnedBlock{idx: idx, data: blk}
		r.pin(b)
		return b, nil
	}
	return r.load(idx)
}

// load reads block idx from the manager: the one place a log block is read
// by LSN and the shared cache filled. Chain walks move toward lower LSNs, so
// a walking reader fetches the previous block in the same physical read when
// it is not already resident — one I/O warms the span the walk needs next.
//
// The store is asked only for bytes from the truncation point's offset on:
// no record read needs a byte below it, and retention never drops one at or
// above it. Only a block read whole enters the shared cache; one read short,
// at the front (the truncation point inside it) or at the tail (the log's
// growing end), is pinned privately. Appended records are immutable, so a
// stale-short private copy is refreshed on demand (see at). If the cut moves
// past the clamp before the store read, the store refuses the bytes: clamp
// again and retry.
func (r *ChainReader) load(idx int64) (pinnedBlock, error) {
	first := idx
	if idx > 0 && !r.oneShot && r.pinned(idx-1).data == nil {
		if blk := r.m.cache.peek(idx - 1); blk != nil {
			r.pin(pinnedBlock{idx: idx - 1, data: blk})
		} else {
			first = idx - 1
		}
	}
	end := (idx + 1) * readBlockSize
	var buf []byte
	var lo int64
	for {
		t := r.m.truncPoint()
		if lo = max(first*readBlockSize, int64(t-1)); lo >= end {
			return pinnedBlock{}, fmt.Errorf("%w: block %d lies below %v", ErrTruncated, idx, t)
		}
		buf = make([]byte, end-lo)
		n, disk, err := r.m.readAt(buf, lo)
		if errors.Is(err, ErrTruncated) && r.m.truncPoint() != t {
			continue // the cut moved past lo between the clamp and the read
		}
		if err != nil {
			return pinnedBlock{}, fmt.Errorf("wal: block %d: %w", idx, err)
		}
		if disk > 0 {
			r.m.dev.ChargeRead(disk, false)
			r.m.UndoReads.Add(1)
		}
		buf = buf[:n]
		break
	}
	var out pinnedBlock
	for b := lo / readBlockSize; b <= idx; b++ {
		blo := int(max(lo-b*readBlockSize, 0))
		from := b*readBlockSize + int64(blo) - lo
		if from >= int64(len(buf)) {
			break
		}
		to := min(from+int64(readBlockSize-blo), int64(len(buf)))
		p := pinnedBlock{idx: b, lo: blo, data: buf[from:to:to]}
		if len(p.data) == readBlockSize {
			r.m.cache.put(b, p.data)
		}
		r.pin(p)
		if b == idx {
			out = p
		}
	}
	if out.data == nil {
		return pinnedBlock{}, io.ErrUnexpectedEOF
	}
	return out, nil
}

// at returns the bytes of the block holding log offset off from off on, at
// least need of them (need must not cross the block's end). A pinned copy
// too short at the tail is read again; a byte below the part the block was
// read from is below the truncation point.
func (r *ChainReader) at(off int64, need int) ([]byte, error) {
	idx, bo := off/readBlockSize, int(off%readBlockSize)
	b, err := r.block(idx)
	if err != nil {
		return nil, err
	}
	if bo+need > b.lo+len(b.data) {
		r.unpin(idx)
		if b, err = r.block(idx); err != nil {
			return nil, err
		}
		if bo+need > b.lo+len(b.data) {
			return nil, io.ErrUnexpectedEOF
		}
	}
	if bo < b.lo {
		return nil, fmt.Errorf("%w: offset %d is below the truncation point", ErrTruncated, off)
	}
	return b.data[bo-b.lo:], nil
}

// copyAt fills dst from log offset off through the pinned block set.
func (r *ChainReader) copyAt(dst []byte, off int64) error {
	for len(dst) > 0 {
		src, err := r.at(off, 1)
		if err != nil {
			return err
		}
		n := copy(dst, src)
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// view returns n bytes at log offset off: a direct slice of one pinned
// block when the range does not cross a block boundary (the common case —
// zero copies), else assembled into the reader's reusable spill buffer.
func (r *ChainReader) view(off int64, n int) ([]byte, error) {
	if int(off%readBlockSize)+n <= readBlockSize {
		src, err := r.at(off, n)
		if err != nil {
			return nil, err
		}
		return src[:n], nil
	}
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n)
	}
	dst := r.scratch[:n]
	if err := r.copyAt(dst, off); err != nil {
		return nil, err
	}
	return dst, nil
}
