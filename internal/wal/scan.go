package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// scanStretch is how many log bytes one Scan read asks for, and
// batchStretch one ScanBatches read: crash recovery reads ahead the data
// pages of each batch, and a longer stretch finds longer runs of them. The
// records a stretch completes are handed over together; a record longer than
// a stretch grows the read to its frame.
const (
	scanStretch  = readBlockSize
	batchStretch = 4 * readBlockSize
)

// scanBuf is a scan's read stretch and record batch, pooled (one pool per
// stretch size) so that scans decode into reused memory instead of
// allocating per record. Records are decoded into fixed chunks of slabChunk
// that are kept from stretch to stretch: a longer batch adds a chunk and
// never copies the ones before it.
type scanBuf struct {
	buf  []byte
	recs []*Record // point into slab
	slab [][]Record
}

const slabChunk = 64

// record returns the i'th record of the stretch's slab, zeroed.
func (sb *scanBuf) record(i int) *Record {
	if i/slabChunk == len(sb.slab) {
		sb.slab = append(sb.slab, make([]Record, slabChunk))
	}
	rec := &sb.slab[i/slabChunk][i%slabChunk]
	*rec = Record{}
	return rec
}

var scanBufPools = map[int]*sync.Pool{
	scanStretch:  {New: func() any { return &scanBuf{buf: make([]byte, scanStretch)} }},
	batchStretch: {New: func() any { return &scanBuf{buf: make([]byte, batchStretch)} }},
}

// scanFrames is the one forward log scan: crash recovery, standby catch-up,
// as-of resolution and restores all read through it. It reads the log from
// `from` in stretches of the given size (scanStretch or batchStretch) over an
// arbitrary byte source and hands fn the records each stretch completes, in
// LSN order; they, and the bytes they alias, are reused once fn returns. It
// stops when fn returns false or an error, at the end of the log, or at a
// torn or garbage frame (implausible length, body cut short, CRC mismatch),
// and returns where the intact prefix it read ends: the LSN of its last byte
// (from-1 if it read none). A CRC-valid body that does not decode is an
// error, not a tear.
func scanFrames(readAt func([]byte, int64) (int, error), from LSN, stretch int, fn func([]*Record) (bool, error)) (LSN, error) {
	pool := scanBufPools[stretch]
	sb := pool.Get().(*scanBuf)
	defer func() {
		sb.buf = sb.buf[:stretch] // a grown stretch does not outlive its scan
		pool.Put(sb)
	}()
	base, have := int64(from-1), 0 // log offset of sb.buf[0]; bytes held
	for {
		want := len(sb.buf) - have
		n, err := readAt(sb.buf[have:], base+int64(have))
		if err != nil && !errors.Is(err, io.EOF) {
			return LSN(base), fmt.Errorf("wal: scan at %d: %w", base+int64(have), err)
		}
		have += n
		pos, torn := 0, false
		var bad error // an undecodable record: fn still sees those before it
		sb.recs = sb.recs[:0]
		for {
			body, size, ok, ferr := NextFrame(sb.buf[pos:have])
			torn = ferr != nil
			if !ok {
				break
			}
			rec := sb.record(len(sb.recs))
			if err := unmarshalInto(rec, body); err != nil {
				bad = fmt.Errorf("wal: record at %v: %w", LSN(base+int64(pos))+1, err)
				break
			}
			rec.LSN = LSN(base+int64(pos)) + 1
			sb.recs = append(sb.recs, rec)
			pos += size
		}
		end := LSN(base + int64(pos))
		if len(sb.recs) > 0 {
			if cont, err := fn(sb.recs); err != nil || !cont {
				return end, err
			}
		}
		if bad != nil || torn || n < want {
			return end, bad // an undecodable record, a torn tail, or the end of the log
		}
		// Carry the unfinished frame to the front, growing the stretch when
		// the frame is longer than it.
		have = copy(sb.buf, sb.buf[pos:have])
		base += int64(pos)
		if size, ok := FrameSize(sb.buf[:have]); ok && size > len(sb.buf) {
			sb.buf = append(sb.buf[:have], make([]byte, size-have)...)
		}
	}
}

// eachRecord adapts a per-record scan callback to scanFrames' batches.
func eachRecord(fn func(*Record) (bool, error)) func([]*Record) (bool, error) {
	return func(recs []*Record) (bool, error) {
		for _, rec := range recs {
			if cont, err := fn(rec); err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	}
}

// readFrame fetches and decodes the single record at lsn from a byte source:
// the live log's block cache (Manager.Read).
func readFrame(readAt func([]byte, int64) (int, error), lsn LSN) (*Record, error) {
	var hdr [frameHeader]byte
	if n, err := readAt(hdr[:], int64(lsn-1)); err != nil || n < frameHeader {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wal: read frame at %v: %w", lsn, err)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen == 0 || bodyLen > MaxRecordBytes {
		return nil, fmt.Errorf("wal: implausible record length %d at %v", bodyLen, lsn)
	}
	body := make([]byte, bodyLen)
	if n, err := readAt(body, int64(lsn-1)+frameHeader); err != nil || n < int(bodyLen) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wal: read frame body at %v: %w", lsn, err)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("wal: checksum mismatch at %v", lsn)
	}
	r, err := unmarshal(body)
	if err != nil {
		return nil, err
	}
	r.LSN = lsn
	return r, nil
}
