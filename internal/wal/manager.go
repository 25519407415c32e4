package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/storage/media"
)

// ErrTruncated is returned when a requested LSN lies before the retention
// boundary (the log has been truncated past it, §4.3).
var ErrTruncated = errors.New("wal: record truncated by retention policy")

// readBlockSize is the granularity of random log reads. One block read is
// one log I/O for the undo-I/O accounting of Figure 11.
const readBlockSize = 32 << 10

// Manager is the log manager: it assigns LSNs, buffers appends, forces the
// log on commit (write-ahead rule), serves random reads by LSN for undo, and
// sequential scans for recovery and SplitLSN searches.
//
// The write path is a pipelined group commit over a double-buffered tail.
// Append frames the record outside the lock and copies it into the tail
// under mu. Flush(lsn) makes the first caller that finds no write in flight
// the leader: it swaps the tail out and writes it outside the lock, so
// appends (and therefore other transactions' progress) never stall behind
// a log write, and every commit whose record landed in that buffer is
// acknowledged by the same write. Callers arriving while a write is in
// flight wait for it and then elect the next leader, which writes the whole
// batch that accumulated meanwhile. No leader waits for companions: any
// yield lets an unrelated CPU-bound goroutine take the core for a whole
// scheduler timeslice (a concurrent as-of snapshot loop once collapsed
// TPC-C throughput 13x on one core that way), and a lingering leader lost
// on every device measured (DESIGN.md).
type Manager struct {
	mu sync.Mutex // guards append state and flush bookkeeping below

	store *segmentStore
	dev   *media.Device

	tail   []byte // active append buffer
	tailAt LSN    // LSN of tail[0]
	spare  []byte // recycled buffer, swapped in when a flush takes the tail

	// resv is the 0-based end offset of the appended log: the next record's
	// LSN is resv+1. Advanced under mu; atomic so NextLSN and Size read it
	// without the lock.
	resv atomic.Uint64

	// failWrites is a test hook: when set, physical log writes fail with
	// errInjectedWrite, poisoning the manager like a real I/O error.
	failWrites atomic.Bool

	// While a flush is in flight, the bytes being written live here; their
	// content is immutable until the flush completes, so readAt can serve
	// them under mu.
	flushing    []byte
	flushingAt  LSN
	flushActive bool
	flushGen    uint64     // bumped when a flush completes
	flushDone   *sync.Cond // broadcast on flushGen bump; waits on mu

	flushed atomic.Uint64
	trunc   atomic.Uint64 // records below this are unavailable (retention)

	ioErr error // sticky: a failed log write poisons the manager

	cache     *blockCache
	UndoReads atomic.Int64 // random block reads served from disk (Fig 11)

	// truncMu serializes Truncate's persist-then-drop sequence (concurrent
	// auto-checkpoints may race into it); savedTrunc, under it, is the cut
	// already persisted and physically applied, so an unchanged cut is a
	// no-op instead of a repeat sidecar write (+fsyncs) per checkpoint.
	truncMu    sync.Mutex
	savedTrunc LSN

	// Sparse time→LSN index (§5.1 acceleration): every timeSampleEvery
	// bytes of log, the next commit record appended contributes a
	// (wallclock, LSN) sample, so ResolveTime/FindCommits binary-search to a
	// narrow log window instead of scanning from a checkpoint or the head.
	// Guarded by mu (samples are taken inside Append); persisted by
	// piggybacking on checkpoint-end records and reseeded at open.
	samples    []TimeSample
	lastSample LSN

	// Flushes counts physical log writes. Commits / Flushes is the group
	// commit batching factor.
	Flushes atomic.Int64

	// listeners are notified (non-blocking) every time a flush completes and
	// the durable LSN advances — the log-shipping hook: a shipper goroutine
	// parks on its channel and reads the newly durable bytes, so shipping
	// batches ride the group-commit flush boundaries instead of polling.
	// Guarded by mu.
	listeners []chan struct{}

	// clock supplies wall-clock time for machinery that needs a reading
	// outside any record (replication heartbeats). Injected so lag tests are
	// deterministic; defaults to the system clock.
	clock clock.Clock

	// metrics is the hot-path instrumentation (see metrics.go). Held by
	// value: the zero value's nil handles make every observation a no-op,
	// so un-instrumented managers pay only dead branches.
	metrics Metrics

	// syncHook is a test hook invoked between a log force's write+sync and
	// the latency span's end — virtual-clock tests advance a Mock clock in
	// it to pin exact fsync-histogram contents.
	syncHook func()
}

// errInjectedWrite is what the test-only failWrites hook makes log writes
// return, so I/O-error propagation is testable without a faulty disk.
var errInjectedWrite = errors.New("wal: injected write failure (test hook)")

// Config tunes the segmented log store behind a Manager.
type Config struct {
	// Dev is the simulated media device charged for log I/O (nil = uncharged).
	Dev *media.Device
	// SegmentBytes is the capacity of one segment file (default
	// DefaultSegmentBytes; floor 4 KiB).
	SegmentBytes int64
	// Sync selects the log-force durability policy (default SyncNone).
	Sync SyncPolicy
	// ArchiveDir, when set, receives sealed segments dropped by retention
	// instead of deleting them. The store keeps serving them to ReadDurable
	// (replicas resuming or reseeded below the live floor).
	ArchiveDir string
	// BaseLSN seeds a freshly created store so its log begins at the given
	// LSN instead of 1 — a reseeded replica's local log starts at the
	// backup checkpoint, not at database creation. Ignored when the store
	// already holds segments.
	BaseLSN LSN
}

// Open opens (creating if necessary) the segmented log store rooted at the
// directory path, with default configuration. dev may be nil.
func Open(path string, dev *media.Device) (*Manager, error) {
	return OpenStore(path, Config{Dev: dev})
}

// OpenStore opens (creating if necessary) the segmented log store rooted at
// the directory dir.
func OpenStore(dir string, cfg Config) (*Manager, error) {
	baseOff := int64(0)
	if cfg.BaseLSN > 1 {
		baseOff = int64(cfg.BaseLSN - 1)
	}
	store, err := openSegmentStore(dir, cfg.SegmentBytes, cfg.Sync, cfg.ArchiveDir, baseOff)
	if err != nil {
		return nil, err
	}
	end := LSN(store.endOff())
	m := &Manager{
		store:  store,
		dev:    cfg.Dev,
		tailAt: end + 1,
		cache:  newBlockCache(256), // 8 MiB of log cache
		clock:  clock.Real(),
	}
	m.resv.Store(uint64(end))
	// A store whose first segment begins past offset 0 carries a durable
	// retention floor. The logical truncation point — the record-boundary
	// LSN retention cut at, which is what scans must resume from (the
	// segment base itself is usually mid-record) — comes from the trunc
	// sidecar; the physical floor is the fallback for stores predating it.
	if t, ok := loadTruncPoint(dir); ok && t > 1 {
		m.trunc.Store(uint64(t))
		m.savedTrunc = t
	} else if base := store.startOff(); base > 0 {
		m.trunc.Store(uint64(base) + 1)
	}
	m.flushDone = sync.NewCond(&m.mu)
	m.flushed.Store(uint64(end))
	return m, nil
}

// SetClock injects the manager's wall-clock source (replication heartbeat
// stamps). Call before the manager is shared between goroutines; nil keeps
// the system clock.
func (m *Manager) SetClock(c clock.Clock) {
	if c != nil {
		m.clock = c
	}
}

// Now returns the manager's wall-clock reading.
func (m *Manager) Now() time.Time { return m.clock.Now() }

// SetCacheBlocks resizes the random-read block cache to n blocks of
// readBlockSize (n <= 0 keeps the current size). Call before the manager is
// shared between goroutines; resizing drops cached blocks.
func (m *Manager) SetCacheBlocks(n int) {
	if n > 0 {
		m.cache = newBlockCache(n)
	}
}

// Close flushes (honoring the sync policy) and closes the log.
func (m *Manager) Close() error {
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		return err
	}
	return m.store.close()
}

// NextLSN returns the LSN the next appended record will receive.
func (m *Manager) NextLSN() LSN {
	return LSN(m.resv.Load()) + 1
}

// FlushedLSN returns the highest LSN known durable.
func (m *Manager) FlushedLSN() LSN { return LSN(m.flushed.Load()) }

// TruncationPoint returns the lowest available LSN (1 if never truncated).
func (m *Manager) TruncationPoint() LSN { return m.truncPoint() }

// truncPoint is the lock-free internal form (chain readers check it per hop).
func (m *Manager) truncPoint() LSN {
	if t := m.trunc.Load(); t != 0 {
		return LSN(t)
	}
	return 1
}

// framePool recycles scratch buffers so records can be framed (marshaled
// and checksummed) outside the manager lock.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

// Append assigns the record an LSN and buffers it. The record is not
// durable until the flushed LSN reaches its LSN. The record is fully
// serialized into the log buffer before Append returns (callers alias page
// bytes into records and may reuse them afterwards). Marshaling and the
// CRC run outside mu, so appenders serialize only on the tail copy. Once a
// failed log write has poisoned the manager, Append returns that error: a
// record appended behind the hole could never become durable.
func (m *Manager) Append(r *Record) (LSN, error) {
	fb := framePool.Get().(*frameBuf)
	fb.b = frame(fb.b[:0], r)
	m.mu.Lock()
	if m.ioErr != nil {
		err := m.ioErr
		m.mu.Unlock()
		framePool.Put(fb)
		return NilLSN, err
	}
	start := m.resv.Load()
	lsn := LSN(start) + 1
	m.tail = append(m.tail, fb.b...)
	m.resv.Store(start + uint64(len(fb.b)))
	if r.Type == TypeCommit {
		m.maybeSampleLocked(r.WallClock, lsn)
	}
	m.mu.Unlock()
	m.metrics.Appends.Inc()
	m.metrics.AppendBytes.Add(int64(len(fb.b)))
	r.LSN = lsn
	framePool.Put(fb)
	return lsn, nil
}

// AppendFlush appends and immediately forces the record to disk. For
// infrequent must-be-durable-now records (checkpoint ends, recovery aborts).
func (m *Manager) AppendFlush(r *Record) (LSN, error) {
	lsn, err := m.Append(r)
	if err != nil {
		return lsn, err
	}
	return lsn, m.Flush(lsn)
}

// Flush blocks until the log is durable through at least lsn. The caller
// rides a write already in flight or leads the next one, which writes
// everything appended so far — this is the commit path's group commit. Log
// writes are sequential I/O (the paper notes ~100 MB/s of sequential log
// bandwidth at peak, easily sustainable).
func (m *Manager) Flush(lsn LSN) error {
	for {
		if LSN(m.flushed.Load()) >= lsn {
			return nil
		}
		m.mu.Lock()
		if m.ioErr != nil {
			err := m.ioErr
			m.mu.Unlock()
			return err
		}
		if LSN(m.flushed.Load()) >= lsn {
			m.mu.Unlock()
			return nil
		}
		if lsn > LSN(m.resv.Load()) {
			m.mu.Unlock()
			return fmt.Errorf("wal: flush of unappended %v", lsn)
		}
		if m.flushActive {
			// A flush is in flight. Wait for it; if it covered our record
			// the re-check returns, otherwise we compete to lead the next.
			gen := m.flushGen
			for m.flushActive && m.flushGen == gen {
				m.flushDone.Wait()
			}
			m.mu.Unlock()
			continue
		}
		// Leader: claim the flush slot and swap the tail out; appends
		// continue into the spare buffer while we write outside the lock.
		m.flushActive = true
		buf := m.tail
		at := m.tailAt
		m.flushing = buf
		m.flushingAt = at
		if m.spare == nil {
			m.spare = make([]byte, 0, cap(buf))
		}
		m.tail = m.spare[:0]
		m.spare = nil
		m.tailAt = at + LSN(len(buf))
		m.mu.Unlock()

		var err error
		if len(buf) > 0 {
			// The write-then-sync pair is one log force: durability is not
			// acknowledged (flushed is not advanced) until both complete, so
			// under SyncData a commit's Flush really means fdatasync'd.
			m.metrics.FlushBytes.Observe(int64(len(buf)))
			sp := obs.StartSpan(m.clock, m.metrics.FsyncSeconds)
			if m.failWrites.Load() {
				err = errInjectedWrite
			} else {
				err = m.store.writeAt(buf, int64(at-1))
				if err == nil {
					err = m.store.syncDirty()
				}
			}
			if m.syncHook != nil {
				m.syncHook()
			}
			sp.End()
			m.Flushes.Add(1)
		}

		m.mu.Lock()
		if err != nil {
			// Put the unwritten bytes back in front of whatever was appended
			// meanwhile and poison the manager: after a failed log write no
			// later flush may succeed, or the log would have a hole.
			m.ioErr = fmt.Errorf("wal: flush: %w", err)
			m.tail = append(buf, m.tail...)
			m.tailAt = at
			err = m.ioErr
		} else {
			m.flushed.Store(uint64(at) + uint64(len(buf)) - 1)
			m.spare = buf[:0]
		}
		m.flushing = nil
		m.flushActive = false
		m.flushGen++
		m.flushDone.Broadcast()
		if err == nil && len(buf) > 0 {
			m.notifyDurableLocked()
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
		if len(buf) > 0 {
			m.dev.ChargeWrite(int64(len(buf)), true)
		}
	}
}

// FlushNotify registers and returns a channel that receives a (coalesced,
// non-blocking) signal every time a flush completes and the durable LSN
// advances. A log shipper parks on it and reads the newly durable bytes
// with ReadDurable — shipping batches ride the group-commit flush
// boundaries, never polling and never touching the random-read block cache.
func (m *Manager) FlushNotify() <-chan struct{} {
	ch := make(chan struct{}, 1)
	m.mu.Lock()
	m.listeners = append(m.listeners, ch)
	m.mu.Unlock()
	return ch
}

// FlushUnnotify deregisters a channel returned by FlushNotify.
func (m *Manager) FlushUnnotify(ch <-chan struct{}) {
	m.mu.Lock()
	for i, l := range m.listeners {
		if l == ch {
			m.listeners = append(m.listeners[:i], m.listeners[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// notifyDurableLocked signals every registered listener; sends never block
// (the 1-buffered channels coalesce bursts). Caller holds mu.
func (m *Manager) notifyDurableLocked() {
	for _, ch := range m.listeners {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ReadDurable fills buf with raw log bytes starting at byte offset off,
// serving only durable bytes (at or below the flushed LSN) straight from
// the segment files, archived ones included — the log shipper's read path.
// It deliberately bypasses the random-read block cache: shipping reads the
// still-warm tail of the log exactly once, and must not evict the hot
// chain-walk window that as-of queries depend on. Returns the number of
// bytes served (0 at the durable end) — short reads are normal when less
// than len(buf) is durable. A byte below Floor is an error wrapping
// ErrTruncated, never zeros: the store checks it under the lock its read
// and retention's moves take.
func (m *Manager) ReadDurable(buf []byte, off int64) (int, error) {
	durable := int64(m.flushed.Load())
	if off >= durable {
		return 0, nil
	}
	if off+int64(len(buf)) > durable {
		buf = buf[:durable-off]
	}
	n, err := m.store.readAt(buf, off)
	if err != nil && !(errors.Is(err, io.EOF) && n == len(buf)) {
		return n, fmt.Errorf("wal: durable read at %d: %w", off, err)
	}
	return len(buf), nil
}

// AppendRaw appends pre-framed record bytes — a shipped batch that already
// ends on a record boundary — at the current end of the log and makes them
// durable immediately. This is the replica-side ingestion path: the replica
// log is a byte-exact copy of the primary's, so LSNs (byte offsets) line up
// and every chain walk works unchanged. The manager must have no concurrent
// appenders (a standby's log has a single writer: the apply loop).
func (m *Manager) AppendRaw(frames []byte) (LSN, error) {
	if len(frames) == 0 {
		return m.NextLSN() - 1, nil
	}
	m.mu.Lock()
	if m.ioErr != nil {
		err := m.ioErr
		m.mu.Unlock()
		return NilLSN, err
	}
	if len(m.tail) > 0 || m.flushActive {
		m.mu.Unlock()
		return NilLSN, errors.New("wal: AppendRaw on a log with buffered appends")
	}
	at := LSN(m.resv.Load()) + 1
	m.mu.Unlock()

	var err error
	if m.failWrites.Load() {
		err = errInjectedWrite
	} else {
		err = m.store.writeAt(frames, int64(at-1))
		if err == nil {
			err = m.store.syncDirty()
		}
	}
	if err != nil {
		m.mu.Lock()
		m.ioErr = fmt.Errorf("wal: raw append: %w", err)
		m.mu.Unlock()
		return NilLSN, m.ioErr
	}
	m.Flushes.Add(1)

	m.mu.Lock()
	if got := LSN(m.resv.Load()) + 1; got != at {
		// A concurrent appender took log space while the raw write was in
		// flight, violating the single-writer contract. Its record and the
		// raw bytes now claim the same offsets, and storing our end below
		// would silently drop it — poison loudly instead.
		m.ioErr = fmt.Errorf("wal: AppendRaw raced concurrent appends (next LSN moved %v -> %v)", at, got)
		m.mu.Unlock()
		return NilLSN, m.ioErr
	}
	end := uint64(at-1) + uint64(len(frames))
	m.resv.Store(end)
	m.tailAt = LSN(end) + 1
	m.flushed.Store(end)
	m.notifyDurableLocked()
	m.mu.Unlock()
	m.dev.ChargeWrite(int64(len(frames)), true)
	return LSN(end), nil
}

// Rewind discards the (non-durable or torn) log past end: the file is
// truncated so the next appended record receives LSN end+1. Used by
// recovery when a crash tore the final record — the valid prefix ends at
// end — and by a replica resynchronizing its local log to a re-shipped
// boundary. The manager must be quiescent (no concurrent appends/flushes).
func (m *Manager) Rewind(end LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tail) > 0 || m.flushActive {
		return errors.New("wal: rewind with buffered appends")
	}
	if end > LSN(m.resv.Load()) {
		return fmt.Errorf("wal: rewind to %v past end %v", end, LSN(m.resv.Load()))
	}
	if err := m.store.truncateTo(int64(end)); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	m.resv.Store(uint64(end))
	m.tailAt = end + 1
	m.flushed.Store(uint64(end))
	m.cache.clear() // cached blocks past the cut are stale
	// Drop time samples past the cut: the rewound range will be rewritten —
	// with different records after crash recovery's undo, or re-observed
	// commit by commit on a resynchronizing replica — so samples pointing
	// into it would map times to LSNs that no longer hold commit records.
	for len(m.samples) > 0 && m.samples[len(m.samples)-1].LSN > end {
		m.samples = m.samples[:len(m.samples)-1]
	}
	if n := len(m.samples); n > 0 {
		m.lastSample = m.samples[n-1].LSN
	} else {
		m.lastSample = NilLSN
	}
	return nil
}

// ObserveCommit feeds one commit record's (wallclock, LSN) pair into the
// sparse time→LSN index, honoring the sampling cadence. The replica apply
// loop calls this while ingesting shipped records — reseeding the index the
// primary built in Append — so ResolveTime on a standby narrows its scans
// exactly like on the primary.
func (m *Manager) ObserveCommit(wallClock int64, lsn LSN) {
	m.mu.Lock()
	m.maybeSampleLocked(wallClock, lsn)
	m.mu.Unlock()
}

// Truncate discards records below lsn (the retention boundary, §4.3).
// Logical truncation is immediate (reads below the boundary fail with
// ErrTruncated); physically, every sealed segment wholly below the boundary
// is unlinked — or renamed into the archive directory, where ReadDurable
// still serves it — in O(segments dropped), never rewriting live segments.
// LSN arithmetic stays stable because segment headers carry their base
// offsets.
func (m *Manager) Truncate(before LSN) error {
	m.mu.Lock()
	if before > LSN(m.trunc.Load()) {
		m.trunc.Store(uint64(before))
		// Drop time samples that now point below the retention boundary.
		i := 0
		for i < len(m.samples) && m.samples[i].LSN < before {
			i++
		}
		if i > 0 {
			m.samples = append(m.samples[:0], m.samples[i:]...)
		}
	}
	cut := LSN(m.trunc.Load())
	m.mu.Unlock()
	if cut <= 1 {
		return nil
	}
	// Serialize persist-then-drop: concurrent truncations (tolerated
	// auto-checkpoint races) must not let a stale cut overwrite a newer
	// sidecar after the newer cut already dropped segments.
	m.truncMu.Lock()
	defer m.truncMu.Unlock()
	if cut <= m.savedTrunc {
		return nil // already persisted and applied at (or past) this cut
	}
	// Persist the logical cut before dropping anything: after a restart,
	// scans resume from this record boundary, never from a (mid-record)
	// segment base. Sidecar-ahead-of-floor is the safe crash ordering.
	if err := m.store.saveTruncPoint(cut); err != nil {
		return err
	}
	m.savedTrunc = cut
	m.metrics.Truncations.Inc()
	archived, removed, err := m.store.dropBefore(int64(cut - 1))
	if err != nil {
		return err
	}
	m.metrics.SegmentsDropped.Add(int64(archived + removed))
	if archived+removed > 0 {
		// Drop the cached blocks of the dropped segments: no record read
		// asks for them again, and left in place they hold their memory
		// until the clock evicts them. Keeping them raised the oltp_tpcc
		// benchmark workload's peak RSS from 27.6 to 52.5 MiB (seed 1,
		// 2 vCPU).
		m.cache.clear()
	}
	return nil
}

// Segments reports the live segment files (base LSN, size, sealed/active).
func (m *Manager) Segments() []SegmentInfo { return m.store.infos() }

// SegmentFloor returns the lowest LSN physically present in the live store
// — the first segment's base. It can sit below TruncationPoint: retention
// cuts at a record boundary but drops whole segments. Record reads ask the
// store only for bytes from the truncation point on. Bytes below the floor
// exist only in the retention archive, if one is configured; Floor reports
// how far down it reaches, and ReadDurable serves them.
func (m *Manager) SegmentFloor() LSN { return LSN(m.store.startOff()) + 1 }

// Floor returns the lowest LSN whose byte the log holds, in the live store
// or its retention archive: ReadDurable serves every durable byte from it
// on. err, when not nil, names why the archive directory could not be
// loaded (a gap, an unreadable header); the floor is then what did load.
func (m *Manager) Floor() (LSN, error) {
	off, err := m.store.floor()
	return LSN(off) + 1, err
}

// Sync reports the manager's log-force durability policy.
func (m *Manager) Sync() SyncPolicy { return m.store.sync }

// ArchiveDir returns the retention archive directory ("" = none).
func (m *Manager) ArchiveDir() string { return m.store.archiveDir }

// SegmentBytes returns the configured segment capacity.
func (m *Manager) SegmentBytes() int64 { return m.store.segBytes }

// Size returns the total log size in bytes, including the unflushed tail.
func (m *Manager) Size() int64 {
	return int64(m.resv.Load())
}

// readAt fills buf from log offset off. Bytes may live in three places: the
// active tail, the buffer a flush is currently writing, and the file; the
// in-memory portions are copied under the manager lock (Flush recycles the
// buffers once a write completes), the durable portion is read outside it.
// Returns the number of bytes it could serve (short only at end of log) and
// how many of them came from the store, the part a caller charges as I/O.
func (m *Manager) readAt(buf []byte, off int64) (n int, disk int64, err error) {
	m.mu.Lock()
	end := int64(m.resv.Load())
	if off >= end {
		m.mu.Unlock()
		return 0, 0, io.EOF
	}
	want := buf[:min(int64(len(buf)), end-off)]
	memStart := int64(m.tailAt - 1)
	overlay(want, off, m.tail, memStart)
	if m.flushing != nil {
		memStart = int64(m.flushingAt - 1)
		overlay(want, off, m.flushing, memStart)
	}
	diskLen := max(min(int64(len(want)), memStart-off), 0)
	m.mu.Unlock()

	if diskLen > 0 {
		// Bytes below memStart are durable and immutable once written, so
		// reading outside the lock is safe even if a flush races with us.
		rn, err := m.store.readAt(want[:diskLen], off)
		if err != nil && !(errors.Is(err, io.EOF) && int64(rn) == diskLen) {
			return rn, 0, fmt.Errorf("wal: read at %d: %w", off, err)
		}
	}
	return len(want), diskLen, nil
}

// overlay copies into dst, the log bytes from offset off, the part of src,
// the log bytes from offset at, that the two share.
func overlay(dst []byte, off int64, src []byte, at int64) {
	if lo, hi := max(off, at), min(off+int64(len(dst)), at+int64(len(src))); lo < hi {
		copy(dst[lo-off:hi-off], src[lo-at:])
	}
}

// Read fetches the record at lsn as a privately owned Record: the one-shot
// form of ChainReader.Read, through the same block loader and frame check.
// It reads no block ahead, since a single read has no direction to read in:
// a miss costs one block read, charged to the device as one random log I/O
// and counted in UndoReads (the paper's "each log IO is a potential stall",
// §6.2).
func (m *Manager) Read(lsn LSN) (*Record, error) {
	r := m.ChainReader()
	defer r.Close()
	r.oneShot = true
	body, err := r.frame(lsn)
	if err != nil {
		return nil, err
	}
	rec, err := unmarshal(bytes.Clone(body))
	if err != nil {
		return nil, err
	}
	rec.LSN = lsn
	return rec, nil
}

// InvalidateCache drops all cached blocks, so the next reads by LSN start
// cold. Measurements of undo I/O call it: internal/exp's figures, the
// benchmark rig and tests.
func (m *Manager) InvalidateCache() { m.cache.clear() }

// InjectWriteFailures toggles the fault-injection hook chaos tests use:
// while enabled, physical log writes fail with an injected error,
// poisoning the manager exactly like a dying disk. The poisoning is
// sticky — turning the hook back off does not heal the manager; the
// store must be closed and reopened, as after a real device failure.
func (m *Manager) InjectWriteFailures(on bool) { m.failWrites.Store(on) }

// Scan iterates records in LSN order starting at from (or the truncation
// point, if later), invoking fn for each until fn returns false or an
// error, or the log ends. A record, and the bytes it aliases, is valid until
// fn returns. The scan is sequential I/O, charged for the records fn saw. A
// scan that reaches bytes a retention cut dropped after it started fails
// with an error wrapping ErrTruncated.
func (m *Manager) Scan(from LSN, fn func(*Record) (bool, error)) error {
	charged := int64(0)
	_, err := m.scanFrames(m.scanFrom(from), scanStretch, eachRecord(func(rec *Record) (bool, error) {
		charged += int64(rec.ApproxSize())
		return fn(rec)
	}))
	m.dev.ChargeRead(charged, true)
	return err
}

// ScanBatches is Scan handing fn the records of one read stretch at a time
// (valid until fn returns). Its stretches are 128 KiB, four times Scan's: a
// batch is what crash recovery reads the data pages ahead for, and a longer
// one holds longer runs of consecutive pages. It returns where the log's
// intact prefix ends, the LSN of its last byte: short of the log's end, the
// log is torn there. Every record handed over is charged as sequential I/O.
func (m *Manager) ScanBatches(from LSN, fn func([]*Record) (bool, error)) (LSN, error) {
	from = m.scanFrom(from)
	end, err := m.scanFrames(from, batchStretch, fn)
	m.dev.ChargeRead(int64(end+1-from), true)
	return end, err
}

// scanFrom clamps a scan's start to the truncation point.
func (m *Manager) scanFrom(from LSN) LSN {
	if t := m.truncPoint(); from < t {
		return t
	}
	return from
}
