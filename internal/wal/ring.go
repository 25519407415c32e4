package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync/atomic"
)

// Reservation-ring append path (ROADMAP item 3a).
//
// The mutex path serializes every Append on mu for LSN assignment plus the
// tail memcpy, so commits/s flatlines as committers are added. The ring
// splits an append into three steps, only the first of which is shared
// state at all:
//
//  1. reserve — one atomic add on resv claims the byte range
//     [lsn, lsn+framedLen); the LSN is the range start plus one;
//  2. fill — the appender marshals + CRCs its frame directly into the ring
//     bytes it owns, fully in parallel with every other appender (the
//     record body does not depend on the LSN, so the framed size is known
//     before the reservation is made);
//  3. publish — the appender adds its byte counts to the per-cell fill
//     counters covering its range.
//
// A drainer — the flush leader, a reader, or an appender waiting for space;
// always under mu, so at most one at a time — computes the contiguous
// filled watermark from the cell counters, walks the complete frames below
// it, and moves those bytes into the existing double-buffered tail.
// Everything downstream of the tail — the flush pipeline, segment store,
// shipping, ChainReader, torn-tail recovery — is untouched, and the log
// byte stream is identical to the mutex path's.
//
// Cell counters hold filled-but-undrained byte counts: drain subtracts what
// it consumes, so a counter equal to the number of reservable bytes in the
// cell means "every reserved byte in this cell is filled" with no per-lap
// reset. The space gate (an appender waits while end − consumed exceeds
// ring − cellBytes) keeps one cell of slack so bytes from the next lap can
// never be counted toward a cell still contributing to this lap's
// watermark.
//
// Frames larger than a quarter of the ring bypass it: they reserve with the
// same atomic add — under mu, so reservation and registration are atomic
// with respect to the drainer — and park their framed bytes in a side map
// the drainer splices into the tail when the watermark reaches them. Their
// bytes never touch the cell counters; the watermark is clamped at the
// first pending big frame and consumed jumps over its range.
//
// Drain is frame-aligned: the tail (and therefore every flush buffer) ends
// on a record boundary, so WaitDurable(lsn) acknowledging flushed ≥ lsn
// still means the whole record is durable and shipped batches still end on
// record boundaries.

// DefaultAppendRingBytes is the default capacity of the append reservation
// ring (Config.AppendRingBytes).
const DefaultAppendRingBytes = 1 << 20

// minAppendRingBytes floors configured ring sizes; below this the big-frame
// threshold (ring/4) would push ordinary page-image records onto the
// mu-serialized side-map path.
const minAppendRingBytes = 64 << 10

// ringCellBytes is the granularity of the fill counters. One cell of slack
// is reserved by the space gate, and the watermark advances cell by cell.
const ringCellBytes = 256

// maxBodyPrefix bounds the body prefix needed to decode a record's
// WallClock: 3 fixed bytes plus nine varints of at most 10 bytes each.
const maxBodyPrefix = 96

// errInjectedWrite is what the test-only failWrites hook makes log writes
// return, so I/O-error propagation is testable without a faulty disk.
var errInjectedWrite = errors.New("wal: injected write failure (test hook)")

// appendRing is the fixed-capacity byte ring Append reserves from. resv
// lives on the Manager (it is the LSN clock for both append paths); the
// ring holds the bytes, the fill counters and the drain cursor.
type appendRing struct {
	buf    []byte         // ring bytes; position = offset % len(buf)
	cells  []atomic.Int32 // filled-but-undrained byte counts per cell
	bigMax int            // frames larger than this take the side-map path

	// consumed is the 0-based log offset up to which bytes have been moved
	// out of the ring into the manager tail. Everything in
	// [consumed, resv) is in flight: reserved, possibly filled, not yet
	// drained. Stored by the drainer under mu; loaded lock-free by the
	// appender space gate.
	consumed atomic.Uint64

	// big parks the framed bytes of oversized reservations by 0-based
	// start offset. Guarded by mu.
	big map[uint64][]byte

	// waiters counts goroutines parked on ringCond (space, watermark and
	// reader waits), so publishing appenders skip the lock+broadcast when
	// nobody is listening. Incremented before the final condition check so
	// a concurrent publisher either sees the waiter or the waiter sees the
	// published bytes (atomics are sequentially consistent).
	waiters atomic.Int32
}

func newAppendRing(bytes int) *appendRing {
	if bytes <= 0 {
		bytes = DefaultAppendRingBytes
	}
	if bytes < minAppendRingBytes {
		bytes = minAppendRingBytes
	}
	if rem := bytes % ringCellBytes; rem != 0 {
		bytes += ringCellBytes - rem
	}
	return &appendRing{
		buf:    make([]byte, bytes),
		cells:  make([]atomic.Int32, bytes/ringCellBytes),
		bigMax: bytes / 4,
		big:    make(map[uint64][]byte),
	}
}

// ringAppend is the lock-free append fast path: reserve, fill in place,
// publish. It takes mu only when the ring is out of space or a drainer is
// parked waiting for bytes.
//
// The poisoned check is advisory: an append racing a concurrent poisoning
// can still reserve, fill and return a valid LSN for a record that will
// never become durable. That is by design — Append has never promised
// durability; WaitDurable is the durability gate and surfaces the sticky
// I/O error for any such record.
func (m *Manager) ringAppend(r *Record) (LSN, error) {
	rg := m.ring
	size := r.marshaledSize() + frameHeader
	if size > rg.bigMax {
		return m.ringAppendBig(r, size)
	}
	if m.poisoned.Load() {
		return NilLSN, m.ioError()
	}
	end := m.resv.Add(uint64(size))
	start := end - uint64(size)
	if end > rg.consumed.Load()+uint64(len(rg.buf)-ringCellBytes) {
		if err := m.waitRingSpace(end); err != nil {
			// The manager is poisoned: the reservation stays an
			// unfilled hole in a log that can no longer flush.
			return NilLSN, err
		}
	}
	rg.fill(start, r, size)
	rg.publish(start, end)
	if rg.waiters.Load() != 0 {
		m.mu.Lock()
		m.ringCond.Broadcast()
		m.mu.Unlock()
	}
	m.metrics.Appends.Inc()
	m.metrics.AppendBytes.Add(int64(size))
	lsn := LSN(start + 1)
	r.LSN = lsn
	return lsn, nil
}

// ringAppendBig reserves and registers an oversized frame under mu. The
// framed bytes are freshly allocated — ownership passes to the drainer.
func (m *Manager) ringAppendBig(r *Record, size int) (LSN, error) {
	buf := frame(make([]byte, 0, size), r)
	m.mu.Lock()
	if m.ioErr != nil {
		err := m.ioErr
		m.mu.Unlock()
		return NilLSN, err
	}
	end := m.resv.Add(uint64(len(buf)))
	start := end - uint64(len(buf))
	m.ring.big[start] = buf
	m.ringCond.Broadcast() // a drainer may be parked right at start
	m.mu.Unlock()
	m.metrics.Appends.Inc()
	m.metrics.AppendBytes.Add(int64(len(buf)))
	lsn := LSN(start + 1)
	r.LSN = lsn
	return lsn, nil
}

// waitRingSpace blocks until the reservation ending at end fits in the
// ring, draining on the waiter's own time. Returns the sticky I/O error if
// the manager is poisoned (nothing will drain a dead log's ring).
func (m *Manager) waitRingSpace(end uint64) error {
	rg := m.ring
	limit := uint64(len(rg.buf) - ringCellBytes)
	m.mu.Lock()
	defer m.mu.Unlock()
	rg.waiters.Add(1)
	defer rg.waiters.Add(-1)
	for {
		if m.ioErr != nil {
			return m.ioErr
		}
		m.drainLocked()
		if end <= rg.consumed.Load()+limit {
			return nil
		}
		m.ringCond.Wait()
	}
}

// ioError returns the sticky flush error under mu.
func (m *Manager) ioError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ioErr
}

// fill marshals the record's frame directly into the ring bytes of its
// reservation. Unwrapped reservations marshal in place; a reservation that
// wraps the ring edge frames into pooled scratch and split-copies.
func (rg *appendRing) fill(start uint64, r *Record, size int) {
	ring := uint64(len(rg.buf))
	pos := start % ring
	if pos+uint64(size) <= ring {
		dst := rg.buf[pos : pos : pos+uint64(size)]
		dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
		dst = r.marshal(dst)
		body := dst[frameHeader:]
		binary.LittleEndian.PutUint32(rg.buf[pos:], uint32(len(body)))
		binary.LittleEndian.PutUint32(rg.buf[pos+4:], crc32.ChecksumIEEE(body))
		return
	}
	fb := framePool.Get().(*frameBuf)
	fb.b = frame(fb.b[:0], r)
	n := copy(rg.buf[pos:], fb.b)
	copy(rg.buf, fb.b[n:])
	framePool.Put(fb)
}

// publish adds the reservation's byte counts to the fill counters of every
// cell it overlaps. The atomic adds are the release edge the drainer's
// counter loads acquire, ordering the plain ring-byte writes before any
// drain that observes the counts.
func (rg *appendRing) publish(start, end uint64) {
	nc := uint64(len(rg.cells))
	for g := start; g < end; {
		cell := g / ringCellBytes
		hi := (cell + 1) * ringCellBytes
		if hi > end {
			hi = end
		}
		rg.cells[cell%nc].Add(int32(hi - g))
		g = hi
	}
}

// unpublish subtracts drained bytes from the fill counters (the
// subtract-on-consume half of the counter protocol).
func (rg *appendRing) unpublish(start, end uint64) {
	nc := uint64(len(rg.cells))
	for g := start; g < end; {
		cell := g / ringCellBytes
		hi := (cell + 1) * ringCellBytes
		if hi > end {
			hi = end
		}
		rg.cells[cell%nc].Add(-int32(hi - g))
		g = hi
	}
}

// watermark walks cells upward from consumed and returns the end of the
// contiguous filled prefix, capped at limit (the reservation end or the
// first pending big frame). A cell counts as complete when its fill counter
// equals every byte it can hold below the cap.
func (rg *appendRing) watermark(consumed, limit uint64) uint64 {
	nc := uint64(len(rg.cells))
	w := consumed
	for w < limit {
		cell := w / ringCellBytes
		base := cell * ringCellBytes
		hi := base + ringCellBytes
		if hi > limit {
			hi = limit
		}
		lo := base
		if consumed > lo {
			lo = consumed
		}
		if rg.cells[cell%nc].Load() != int32(hi-lo) {
			break
		}
		w = hi
	}
	return w
}

// drainLocked moves every drainable byte from the ring into the manager
// tail: complete frames below the cell watermark, and big frames the cursor
// has reached. It is the only writer of consumed and runs under mu. Commit
// records are sampled into the time→LSN index here — drain visits frames in
// LSN order, so the sample cadence is identical to sampling inside Append.
func (m *Manager) drainLocked() {
	rg := m.ring
	if rg == nil {
		return
	}
	advanced := false
	for {
		consumed := rg.consumed.Load()
		if buf, ok := rg.big[consumed]; ok {
			m.sampleBigFrame(buf, consumed)
			m.tail = append(m.tail, buf...)
			delete(rg.big, consumed)
			rg.consumed.Store(consumed + uint64(len(buf)))
			advanced = true
			continue
		}
		limit := m.resv.Load()
		if consumed == limit {
			break
		}
		for s := range rg.big {
			if s >= consumed && s < limit {
				limit = s
			}
		}
		w := rg.watermark(consumed, limit)
		drainEnd := m.walkRingFrames(consumed, w)
		if drainEnd == consumed {
			break
		}
		rg.copyOut(&m.tail, consumed, drainEnd)
		rg.unpublish(consumed, drainEnd)
		rg.consumed.Store(drainEnd)
		advanced = true
	}
	if advanced {
		m.metrics.RingDrains.Inc()
		m.ringCond.Broadcast()
	}
}

// walkRingFrames walks complete frames in [from, to) and returns the last
// frame boundary — the filled watermark can end mid-frame when the cell
// holding the next frame's start is complete but the frame itself is not
// fully below it. Commit frames due a time sample are partially decoded for
// their wall clock along the way.
func (m *Manager) walkRingFrames(from, to uint64) uint64 {
	rg := m.ring
	pos := from
	for to-pos >= frameHeader {
		bodyLen := uint64(rg.readU32(pos))
		next := pos + frameHeader + bodyLen
		if next > to {
			break
		}
		lsn := LSN(pos + 1)
		if (m.lastSample == NilLSN || lsn >= m.lastSample+timeSampleEvery) &&
			rg.byteAt(pos+frameHeader) == byte(TypeCommit) {
			var scratch [maxBodyPrefix]byte
			n := int(bodyLen)
			if n > len(scratch) {
				n = len(scratch)
			}
			rg.readInto(scratch[:n], pos+frameHeader)
			if wc, ok := bodyWallClock(scratch[:n]); ok {
				m.maybeSampleLocked(wc, lsn)
			}
		}
		pos = next
	}
	return pos
}

// sampleBigFrame applies the drain-time commit sampling to a side-map frame
// (one reservation is one frame). Commit records are never big in practice.
func (m *Manager) sampleBigFrame(buf []byte, start uint64) {
	if len(buf) <= frameHeader || buf[frameHeader] != byte(TypeCommit) {
		return
	}
	lsn := LSN(start + 1)
	if m.lastSample != NilLSN && lsn < m.lastSample+timeSampleEvery {
		return
	}
	if wc, ok := bodyWallClock(buf[frameHeader:]); ok {
		m.maybeSampleLocked(wc, lsn)
	}
}

// byteAt returns the ring byte at log offset g.
func (rg *appendRing) byteAt(g uint64) byte {
	return rg.buf[g%uint64(len(rg.buf))]
}

// readU32 reads a little-endian u32 at log offset g, wrap-aware.
func (rg *appendRing) readU32(g uint64) uint32 {
	ring := uint64(len(rg.buf))
	pos := g % ring
	if pos+4 <= ring {
		return binary.LittleEndian.Uint32(rg.buf[pos:])
	}
	var b [4]byte
	rg.readInto(b[:], g)
	return binary.LittleEndian.Uint32(b[:])
}

// readInto copies len(dst) ring bytes starting at log offset g, wrap-aware.
func (rg *appendRing) readInto(dst []byte, g uint64) {
	pos := g % uint64(len(rg.buf))
	n := copy(dst, rg.buf[pos:])
	copy(dst[n:], rg.buf)
}

// copyOut appends ring bytes [from, to) to *dst in at most two copies.
func (rg *appendRing) copyOut(dst *[]byte, from, to uint64) {
	ring := uint64(len(rg.buf))
	pos := from % ring
	n := to - from
	if pos+n <= ring {
		*dst = append(*dst, rg.buf[pos:pos+n]...)
		return
	}
	*dst = append(*dst, rg.buf[pos:]...)
	*dst = append(*dst, rg.buf[:n-(ring-pos)]...)
}

// ringQuiescentLocked reports whether the ring holds no in-flight bytes —
// the extra quiescence AppendRaw and Rewind require. Caller holds mu.
func (m *Manager) ringQuiescentLocked() bool {
	if m.ring == nil {
		return true
	}
	return m.ring.consumed.Load() == m.resv.Load() && len(m.ring.big) == 0
}
