package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ArchivedLog presents one contiguous, LSN-addressed read surface over a
// retention archive directory plus (optionally) the live log the segments
// were dropped from. It is what lets a point-in-time restore replay log
// from before the retention horizon: retention moved those sealed segments
// into the archive instead of deleting them, and their headers still carry
// the base offsets, so LSN arithmetic is unchanged.
//
// Byte-level composition matters: records byte-stripe across segments, so
// the last archived segment can hold the first half of a record whose
// second half lives in the first live segment. Reads therefore stitch at
// byte granularity, not record granularity.
//
// An ArchivedLog is a read-only, single-goroutine view (restores and
// reseeds are sequential); it holds the archived files open until Close.
type ArchivedLog struct {
	dir  string
	segs []archSeg
	live *Manager
}

type archSeg struct {
	start int64
	size  int64
	f     *os.File
}

// OpenArchive opens the archived segments in dir, composed with live (which
// may be nil for a pure-archive view). The archived segments must be
// contiguous among themselves and, when live is given, reach the live
// store's first byte — a gap means log history was lost and the composite
// cannot be scanned across it.
func OpenArchive(dir string, live *Manager) (*ArchivedLog, error) {
	a := &ArchivedLog{dir: dir, live: live}
	if err := a.load(); err != nil {
		return nil, err
	}
	return a, nil
}

// load (re-)opens the archive directory's segment set. Called at open and
// by Refresh when retention has archived further segments since.
func (a *ArchivedLog) load() error {
	for _, s := range a.segs {
		s.f.Close()
	}
	a.segs = nil
	if a.dir != "" {
		names, err := segFileNames(a.dir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		for _, name := range names {
			f, err := os.Open(filepath.Join(a.dir, name))
			if err != nil {
				a.Close()
				return err
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				a.Close()
				return err
			}
			_, start, ok := readSegHeader(f)
			if !ok {
				f.Close()
				continue
			}
			size := fi.Size() - segHeaderSize
			if size < 0 {
				size = 0
			}
			a.segs = append(a.segs, archSeg{start: start, size: size, f: f})
		}
		sort.Slice(a.segs, func(i, j int) bool { return a.segs[i].start < a.segs[j].start })
		for i := 1; i < len(a.segs); i++ {
			if a.segs[i-1].start+a.segs[i-1].size != a.segs[i].start {
				a.Close()
				return fmt.Errorf("wal: archive gap between offsets %d and %d",
					a.segs[i-1].start+a.segs[i-1].size, a.segs[i].start)
			}
		}
	}
	if a.live != nil && len(a.segs) > 0 {
		last := a.segs[len(a.segs)-1]
		if liveStart := a.live.store.startOff(); last.start+last.size < liveStart {
			a.Close()
			return fmt.Errorf("wal: archive ends at offset %d but the live log begins at %d",
				last.start+last.size, liveStart)
		}
	}
	return nil
}

// covers reports whether logical offset off is backed by bytes the
// composite can actually serve (an archived segment, or the live store).
func (a *ArchivedLog) covers(off int64) bool {
	if a.live != nil && off >= a.live.store.startOff() {
		return true
	}
	return len(a.segs) > 0 && off >= a.segs[0].start &&
		off < a.segs[len(a.segs)-1].start+a.segs[len(a.segs)-1].size
}

// ReadDurable fills buf from logical offset off, serving archived bytes
// from the archive files and everything else from the live log's durable
// range — the shipper's read path for a subscription that resumes below
// the live retention floor. If retention archived further segments since
// this view was opened, the view refreshes itself; bytes neither archived
// nor live are a hard error (history is gone, the stream must not ship
// zeros).
func (a *ArchivedLog) ReadDurable(buf []byte, off int64) (int, error) {
	if a.live != nil {
		durable := int64(a.live.flushed.Load())
		if off >= durable {
			return 0, nil
		}
		if off+int64(len(buf)) > durable {
			buf = buf[:durable-off]
		}
	}
	for {
		if !a.covers(off) {
			if err := a.load(); err != nil {
				return 0, err
			}
			if !a.covers(off) {
				return 0, fmt.Errorf("wal: offset %d is neither archived nor live", off)
			}
		}
		archEnd := off // first byte the live store (not the archive) serves
		if n := len(a.segs); n > 0 {
			if e := a.segs[n-1].start + a.segs[n-1].size; e > archEnd {
				archEnd = e
			}
		}
		n, err := a.readAt(buf, off)
		if err != nil || a.live == nil || off+int64(n) <= archEnd {
			return n, err
		}
		// Part of the read came from the live store. If retention raised the
		// live floor past that part's start while we read, its prefix may be
		// zero-filled (segmentStore.readAt serves dropped ranges as zeros) —
		// refresh the archive view, which now holds those segments, and
		// retry. The floor only rises and the archive stays contiguous with
		// it, so the loop terminates.
		if archEnd >= a.live.store.startOff() {
			return n, err
		}
		if err := a.load(); err != nil {
			return 0, err
		}
	}
}

// Close releases the archived segment files (the live manager, if any, is
// not touched).
func (a *ArchivedLog) Close() error {
	var first error
	for _, s := range a.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	a.segs = nil
	return first
}

// Floor returns the lowest LSN the composite can serve.
func (a *ArchivedLog) Floor() LSN {
	if len(a.segs) > 0 {
		return LSN(a.segs[0].start + 1)
	}
	if a.live != nil {
		return a.live.TruncationPoint()
	}
	return 1
}

// End returns the LSN just past the last byte the composite can serve.
func (a *ArchivedLog) End() LSN {
	if a.live != nil {
		return a.live.NextLSN()
	}
	if n := len(a.segs); n > 0 {
		return LSN(a.segs[n-1].start + a.segs[n-1].size + 1)
	}
	return 1
}

// readAt serves logical offset off from the archived segments where they
// cover it, and from the live log elsewhere. Overlap is resolved in the
// archive's favor (archived bytes are immutable; the live copy of an
// overlapping region is byte-identical anyway).
func (a *ArchivedLog) readAt(buf []byte, off int64) (int, error) {
	read := 0
	for read < len(buf) {
		i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].start+a.segs[i].size > off })
		if i == len(a.segs) || off < a.segs[i].start {
			// Not covered by the archive: the live log serves the rest in
			// one go (it spans its own segments internally).
			if a.live == nil {
				if read == 0 {
					return 0, io.EOF
				}
				return read, nil
			}
			n, err := a.live.readAt(buf[read:], off, false)
			return read + n, err
		}
		s := a.segs[i]
		n := int64(len(buf) - read)
		if lim := s.start + s.size - off; n > lim {
			n = lim
		}
		rn, err := s.f.ReadAt(buf[read:read+int(n)], off-s.start+segHeaderSize)
		if err != nil && !(errors.Is(err, io.EOF) && int64(rn) == n) {
			return read + rn, fmt.Errorf("wal: archive read at %d: %w", off, err)
		}
		read += int(n)
		off += n
	}
	return read, nil
}

// Scan iterates records in LSN order starting at from (clamped to the
// composite's floor), stopping at a torn tail exactly like Manager.Scan.
func (a *ArchivedLog) Scan(from LSN, fn func(*Record) (bool, error)) error {
	if f := a.Floor(); from < f {
		from = f
	}
	_, err := scanFrames(a.readAt, from, scanStretch, eachRecord(fn))
	return err
}

// Read fetches the record at lsn through the composite surface.
func (a *ArchivedLog) Read(lsn LSN) (*Record, error) {
	if lsn == NilLSN {
		return nil, errors.New("wal: read of nil LSN")
	}
	if f := a.Floor(); lsn < f {
		return nil, fmt.Errorf("%w: %v < %v", ErrTruncated, lsn, f)
	}
	return readFrame(a.readAt, lsn)
}

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
// the live log's block cache (Manager.Read) or the archive+live composite
// (ArchivedLog.Read).
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
