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

type pinnedBlock struct {
	idx  int64 // block index, -1 when the slot is empty
	data []byte
}

// ChainReader is a block-granular log reader for backward chain walks
// (per-page PrevPageLSN chains, per-transaction PrevLSN chains, image
// chains). It differs from Manager.Read in three ways that matter on the
// as-of hot path:
//
//   - records are decoded in place into one reusable scratch Record, so a
//     steady-state chain hop performs zero allocations;
//   - decoded block spans are pinned locally, so consecutive hops within a
//     block touch no shared lock at all (Manager.Read takes a cache-shard
//     mutex per block access and allocates a fresh Record and body copy per
//     record);
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
	if err := unmarshalInto(&r.rec, body); err != nil {
		return nil, err
	}
	r.rec.LSN = lsn
	return &r.rec, nil
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

// pinned returns the locally pinned copy of block idx, or nil.
func (r *ChainReader) pinned(idx int64) []byte {
	for i := range r.blocks {
		if r.blocks[i].idx == idx {
			return r.blocks[i].data
		}
	}
	return nil
}

// pin installs a block span in the local set, replacing round-robin.
func (r *ChainReader) pin(idx int64, data []byte) {
	r.blocks[r.hand] = pinnedBlock{idx: idx, data: data}
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

// block returns the bytes of block idx: from the local pinned set (no
// locks), else the shared cache (one shard mutex), else a physical read.
func (r *ChainReader) block(idx int64) ([]byte, error) {
	if blk := r.pinned(idx); blk != nil {
		return blk, nil
	}
	if blk := r.m.cache.get(idx); blk != nil {
		r.pin(idx, blk)
		return blk, nil
	}
	return r.load(idx)
}

// load reads block idx from the manager. Chain walks move toward lower
// LSNs, so the previous block is fetched in the same physical read when it
// is not already resident — one I/O warms the span the walk needs next.
func (r *ChainReader) load(idx int64) ([]byte, error) {
	start := idx
	if idx > 0 && r.pinned(idx-1) == nil {
		if blk := r.m.cache.peek(idx - 1); blk != nil {
			r.pin(idx-1, blk)
		} else {
			start = idx - 1
		}
	}
	buf := make([]byte, int(idx-start+1)*readBlockSize)
	n, err := r.m.readAt(buf, start*readBlockSize, true)
	if err != nil && n == 0 {
		return nil, fmt.Errorf("wal: block %d: %w", idx, err)
	}
	buf = buf[:n]
	var out []byte
	for b := start; b <= idx; b++ {
		off := int(b-start) * readBlockSize
		if off >= len(buf) {
			break
		}
		end := off + readBlockSize
		if end > len(buf) {
			end = len(buf)
		}
		blk := buf[off:end:end]
		// Only full blocks enter the shared cache: a partial block at the
		// growing end would go stale as the log is extended. The reader may
		// still pin it privately — appended records are immutable, so a
		// stale-short private copy is refreshed on demand (see copyAt).
		if len(blk) == readBlockSize {
			r.m.cache.put(b, blk)
		}
		r.pin(b, blk)
		if b == idx {
			out = blk
		}
	}
	if out == nil {
		return nil, io.ErrUnexpectedEOF
	}
	return out, nil
}

// refresh replaces a stale-short pinned copy of block idx with current bytes.
func (r *ChainReader) refresh(idx int64) ([]byte, error) {
	r.unpin(idx)
	if blk := r.m.cache.get(idx); blk != nil {
		r.pin(idx, blk)
		return blk, nil
	}
	return r.load(idx)
}

// copyAt fills dst from log offset off through the pinned block set.
func (r *ChainReader) copyAt(dst []byte, off int64) error {
	for len(dst) > 0 {
		idx := off / readBlockSize
		bo := int(off % readBlockSize)
		blk, err := r.block(idx)
		if err != nil {
			return err
		}
		if bo >= len(blk) {
			if blk, err = r.refresh(idx); err != nil {
				return err
			}
			if bo >= len(blk) {
				return io.ErrUnexpectedEOF
			}
		}
		n := copy(dst, blk[bo:])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// view returns n bytes at log offset off: a direct slice of one pinned
// block when the range does not cross a block boundary (the common case —
// zero copies), else assembled into the reader's reusable spill buffer.
func (r *ChainReader) view(off int64, n int) ([]byte, error) {
	bo := int(off % readBlockSize)
	if bo+n <= readBlockSize {
		idx := off / readBlockSize
		blk, err := r.block(idx)
		if err != nil {
			return nil, err
		}
		if bo+n > len(blk) {
			if blk, err = r.refresh(idx); err != nil {
				return nil, err
			}
			if bo+n > len(blk) {
				return nil, io.ErrUnexpectedEOF
			}
		}
		return blk[bo : bo+n], nil
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
