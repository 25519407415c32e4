// Package engine ties the substrates into the database engine of §2: a
// single-database storage engine with ARIES-style logging and recovery,
// multi-granularity locking, a relational catalog, and the §4.2 log
// extensions (preformat records, undo-carrying CLRs and SMO deletes, and
// optional periodic full page images) that enable transaction-log-based
// point-in-time queries.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/obs"
	"repro/internal/storage/buffer"
	"repro/internal/storage/disk"
	"repro/internal/storage/media"
	"repro/internal/storage/page"
	"repro/internal/txn"
	"repro/internal/wal"

	"repro/internal/catalog"
)

// Options configures a database.
type Options struct {
	// DataDevice and LogDevice are the simulated media charged for data and
	// log I/O. Nil means uncharged (RAM-speed).
	DataDevice *media.Device
	LogDevice  *media.Device
	// BufferFrames sizes the buffer pool (default 512 pages = 4 MiB).
	BufferFrames int
	// LogCacheBlocks sizes the WAL's random-read block cache in 32 KiB
	// blocks (default 256 = 8 MiB). Chain walks for as-of queries stream
	// through this cache; size it toward the hot log window when concurrent
	// snapshot queries rewind far back.
	LogCacheBlocks int
	// PageImageEvery logs a full page image every Nth modification of a
	// page (§6.1); 0 disables image logging. This is the N swept by
	// Figures 5 and 6.
	PageImageEvery int
	// Retention is how far back as-of snapshots may reach (§4.3,
	// ALTER DATABASE ... SET UNDO_INTERVAL). Default 24h.
	Retention time.Duration
	// Clock supplies wall-clock time (default clock.Real()); tests and
	// experiments install a virtual clock so "N minutes back" is
	// deterministic. Every engine wall-clock reading and the WAL's clock go
	// through it, so time-index, retention and replication-lag tests are
	// deterministic.
	Clock clock.Clock
	// Now is the func form of Clock, read only when Clock is nil. The
	// benchmark rig is its last setter; new code sets Clock.
	Now func() time.Time
	// CheckpointEvery, if positive, makes the engine take a checkpoint
	// after that much log has been generated since the last one
	// (approximating the paper's target recovery interval).
	CheckpointEvery int64

	// SyncPolicy selects log-force durability: wal.SyncNone (buffered
	// writes, the seed crash model — a process crash loses nothing, a power
	// failure may lose the tail) or wal.SyncData (an fdatasync-class sync
	// per group-commit flush, real durability on real devices).
	// Checkpoints inherit the policy end to end: data.db is synced and the
	// control file's append is synced.
	SyncPolicy wal.SyncPolicy
	// LogSegmentBytes is the WAL segment-file capacity (default 64 MiB).
	// Retention drops whole sealed segments, so the segment size bounds
	// both retention granularity and the unit of archive shipping.
	LogSegmentBytes int64
	// LogArchiveDir, when set, receives sealed segments dropped by
	// retention instead of deleting them; the log keeps serving them to
	// replicas whose subscription predates the retention horizon, a
	// replica reseeded from an older backup included.
	LogArchiveDir string

	// DisableObs disables the observability registry entirely: no metrics,
	// no latency spans, no extra clock reads on the commit path. This is
	// the -obsoff A/B arm proving the always-on metrics cost stays ≤2% of
	// commit throughput; production keeps metrics on.
	DisableObs bool
	// ObsListen, when set (e.g. "127.0.0.1:9187"), serves the metric
	// registry over HTTP for the database's lifetime: Prometheus
	// text-format /metrics, a flattened /metrics.json (what `asofctl top`
	// scrapes), and /debug/pprof. Ignored under DisableObs.
	ObsListen string
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.BufferFrames <= 0 {
		out.BufferFrames = 512
	}
	if out.Retention <= 0 {
		out.Retention = 24 * time.Hour
	}
	if out.Clock == nil {
		if out.Now != nil {
			out.Clock = clock.Func(out.Now)
		} else {
			out.Clock = clock.Real()
		}
	}
	return out
}

// DB is an open database.
type DB struct {
	opts Options
	dir  string

	data *disk.File
	log  *wal.Manager
	pool *buffer.Pool
	// ctl is the node's control file: the boot record, the checkpoint
	// index, a standby's apply state and the promotion mark.
	ctl *control.File

	locks *txn.LockManager

	mu            sync.Mutex // guards boot and ckpt bookkeeping
	txns          [txnShards]txnShard
	treeLocks     sync.Map // page.ID -> *sync.RWMutex; read-mostly after warmup
	boot          bootBlock
	lastCkptAt    wal.LSN // log size when the last auto checkpoint ran
	ckptIndex     []CkptMark
	attMarks      []AnalysisMark // analysis seeds, LSN order
	lastATTMarkAt wal.LSN        // log size when the last mark was taken

	allocMu   sync.Mutex // serializes page allocation
	allocHint map[uint32]uint32

	idxMu    sync.RWMutex // guards idxCache, tblCache and catVer
	idxCache map[uint32][]catalog.Index
	tblCache map[string]catalog.Table
	// catVer is bumped by every cache invalidation; cache fills are stamped
	// with the version read before the (unlocked) catalog lookup and
	// discarded if a DDL invalidated meanwhile — otherwise a racing fill
	// could repopulate the cache with pre-DDL metadata forever.
	catVer uint64

	// commitGate makes the checkpoint's ATT capture atomic with respect to
	// commit/abort record appends: enders hold it shared around the append
	// (not the durability wait), the capture holds it exclusively. Without
	// it, a committer parked in the group-commit pipeline between appending
	// its commit record and flipping its state could be snapshotted as
	// "active" even though its commit record precedes the checkpoint-end
	// record — and snapshot recovery would undo a committed transaction.
	commitGate sync.RWMutex

	nextTxnID atomic.Uint64
	closed    atomic.Bool

	// bgCkptErr remembers the last auto-checkpoint failure (see
	// BackgroundCheckpointErr); the commit path cannot return it.
	bgCkptErr atomic.Value

	// standby marks a database opened by OpenStandby: a log-shipping replica
	// whose pages are maintained by an external redo loop (internal/repl).
	// Standbys reject write transactions and never append to their log —
	// the local log is a byte-exact copy of the primary's, so any local
	// record would corrupt the shipped LSN space. Promotion clears the flag.
	standby atomic.Bool
	// appliedLSN is the standby's redo high-water mark: every record at or
	// below it has been applied to the buffer pool. As-of snapshots on a
	// standby may only split at or below it.
	appliedLSN atomic.Uint64
	// redo is RedoBatch's pass state.
	redo BatchRedo

	// CheckpointCount counts checkpoints taken (introspection for tests).
	CheckpointCount atomic.Int64

	// obs is the metric registry (nil under Options.DisableObs — every
	// handle in metrics is then nil, making observations no-ops); obsSrv is
	// the opt-in HTTP listener (Options.ObsListen).
	obs     *obs.Registry
	metrics dbMetrics
	obsSrv  *obs.Server
}

// txnShards partitions the live-transaction registry so Begin/finish on
// concurrent connections do not serialize on one engine-wide mutex; the
// only full iteration is the checkpoint ATT snapshot. lockTimeout bounds a
// lock wait.
const (
	txnShards   = 16
	lockTimeout = 10 * time.Second
)

type txnShard struct {
	mu   sync.Mutex
	txns map[uint64]*Txn
	_    [64 - 16]byte // avoid false sharing between neighboring shards
}

func (db *DB) txnShard(id uint64) *txnShard { return &db.txns[id%txnShards] }

func (db *DB) registerTxn(t *Txn) {
	s := db.txnShard(t.id)
	s.mu.Lock()
	s.txns[t.id] = t
	s.mu.Unlock()
}

func (db *DB) unregisterTxn(id uint64) {
	s := db.txnShard(id)
	s.mu.Lock()
	delete(s.txns, id)
	s.mu.Unlock()
}

// bootBlock is the content of page 0, written directly (outside the WAL):
// it only changes at creation time and at checkpoints, and recovery only
// needs it as a starting hint.
type bootBlock struct {
	roots       catalog.Roots
	lastCkptEnd wal.LSN
	createdAt   int64
	// tli and history are the node's timeline lineage (see wal.TimelineID):
	// which branch of log history this node is on and where each ancestor
	// branch ended. tli 0 means "not yet known": a fresh standby before its
	// first handshake, which reads back as timeline 1 with an empty history
	// and writes no boot record until the handshake installs its lineage.
	tli     wal.TimelineID
	history wal.TimelineHistory
}

// bootMagic's version byte was bumped to 2 when the WAL record encoding
// switched to varints: a database written by the fixed-width build fails
// Open with a clean "bad boot magic" instead of having its log misparsed.
const bootMagic = "ASOFDB\x02\x00"

// Open opens the database in dir, creating it if absent, and runs crash
// recovery if needed.
func Open(dir string, opts Options) (*DB, error) { return open(dir, opts, false) }

// OpenStandby opens the database in dir as a log-shipping standby: files
// are opened (and created empty if absent) but no bootstrap transaction
// runs, no recovery runs, and the engine is read-only — an external
// continuous-redo loop (internal/repl) owns the log and the pages. A
// standby whose directory already holds shipped state loads its checkpoint
// and time→LSN indexes from the control file its own checkpoints kept,
// exactly like a primary would at open. A directory whose node was promoted
// is refused with ErrPromoted.
func OpenStandby(dir string, opts Options) (*DB, error) { return open(dir, opts, true) }

// open is the one body of Open and OpenStandby.
func open(dir string, opts Options, standby bool) (*DB, error) {
	opts = opts.withDefaults()
	ctl, err := control.Open(filepath.Join(dir, control.Name), opts.SyncPolicy == wal.SyncData)
	if err != nil {
		return nil, err
	}
	if standby && len(ctl.Records(control.KindPromoted)) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrPromoted, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: mkdir: %w", err)
	}
	data, err := disk.Open(filepath.Join(dir, "data.db"), opts.DataDevice)
	if err != nil {
		return nil, err
	}
	logm, err := wal.OpenStore(filepath.Join(dir, "wal"), wal.Config{
		Dev:          opts.LogDevice,
		SegmentBytes: opts.LogSegmentBytes,
		Sync:         opts.SyncPolicy,
		ArchiveDir:   opts.LogArchiveDir,
	})
	if err != nil {
		data.Close()
		return nil, err
	}
	logm.SetCacheBlocks(opts.LogCacheBlocks)
	logm.SetClock(opts.Clock)
	db := &DB{
		opts:      opts,
		dir:       dir,
		data:      data,
		log:       logm,
		ctl:       ctl,
		locks:     txn.NewLockManager(lockTimeout),
		allocHint: make(map[uint32]uint32),
		idxCache:  make(map[uint32][]catalog.Index),
		tblCache:  make(map[string]catalog.Table),
	}
	for i := range db.txns {
		db.txns[i].txns = make(map[uint64]*Txn)
	}
	db.pool = buffer.New(buffer.Config{
		Frames:    opts.BufferFrames,
		Source:    data,
		FlushLog:  func(pageLSN uint64) error { return logm.Flush(wal.LSN(pageLSN)) },
		Checksums: true,
	})
	db.nextTxnID.Store(1)
	db.standby.Store(standby)
	if !opts.DisableObs {
		db.initObs()
	}
	if err := db.start(standby); err != nil {
		db.closeFiles()
		return nil, err
	}
	return db, nil
}

// start brings an opened database up. A fresh primary is created; a fresh
// standby stays empty until the stream's hello frame (InitStandbyBoot). An
// existing database reads its boot record and checkpoint index and, unless
// it is a standby, recovers.
func (db *DB) start(standby bool) error {
	if db.data.PageCount() == 0 {
		// A control file beside an empty data file describes one that no
		// longer exists.
		db.ctl.Reset()
		if !standby {
			if err := db.create(); err != nil {
				return err
			}
		}
		return db.startObsListener()
	}
	if err := db.readBoot(); err != nil {
		return err
	}
	if err := db.loadCkptIndex(); err != nil {
		return fmt.Errorf("engine: checkpoint index: %w", err)
	}
	if !standby {
		if err := db.recover(); err != nil {
			return fmt.Errorf("engine: recovery: %w", err)
		}
	}
	return db.startObsListener()
}

// ErrStandby is returned by write entry points on a log-shipping replica;
// promote the replica (repl.Replica.Promote) to open it read-write.
var ErrStandby = errors.New("engine: database is a read-only standby")

// ErrRedoIncomplete is returned by Promote when the standby's applied
// position is short of its local log's end: undo and a new timeline may only
// follow redo of every logged change (§5.2's repeat history).
var ErrRedoIncomplete = errors.New("engine: promote before redo reached the end of the local log")

// ErrBadLineage is returned by Promote, before anything changes, when the
// lineage it would persist fails wal.TimelineHistory.Validate.
var ErrBadLineage = errors.New("engine: promotion would record an invalid timeline history")

// ErrPromoted is returned by OpenStandby for a promoted node's directory:
// its log holds local records at LSNs its upstream has since given to other
// bytes, so streaming onto it would serve CRC-valid garbage.
var ErrPromoted = errors.New("engine: the node was promoted and its log has forked from its upstream's")

// Standby reports whether the database is a read-only log-shipping replica.
func (db *DB) Standby() bool { return db.standby.Load() }

// EnsureTxnIDAfter bumps the transaction-id allocator past id (promotion
// installs the maximum id observed in the shipped stream so a promoted
// replica's new transactions never collide with replayed ones).
func (db *DB) EnsureTxnIDAfter(id uint64) {
	for {
		cur := db.nextTxnID.Load()
		if cur > id {
			return
		}
		if db.nextTxnID.CompareAndSwap(cur, id+1) {
			return
		}
	}
}

// Clock returns the engine's injected wall-clock source.
func (db *DB) Clock() clock.Clock { return db.opts.Clock }

// AppliedLSN returns the standby's redo high-water mark (0 on a primary).
func (db *DB) AppliedLSN() wal.LSN { return wal.LSN(db.appliedLSN.Load()) }

// SetAppliedLSN advances the standby's redo high-water mark. Called by the
// replica apply loop after a batch barrier.
func (db *DB) SetAppliedLSN(lsn wal.LSN) { db.appliedLSN.Store(uint64(lsn)) }

// Bootstrapped reports whether the database has a readable boot page (a
// standby starts from a truly empty directory and gains one via
// InitStandbyBoot when the stream's hello frame arrives).
func (db *DB) Bootstrapped() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.boot.roots.Valid()
}

// InitStandbyBoot installs the primary's catalog roots, creation time and
// lineage on a fresh standby and persists the boot page. The roots never
// change after database creation, so shipping them once in the stream
// handshake replaces the (unlogged) bootstrap that created them on the
// primary.
func (db *DB) InitStandbyBoot(roots catalog.Roots, createdAt int64, tli wal.TimelineID, hist wal.TimelineHistory) error {
	if !roots.Valid() {
		return errors.New("engine: standby boot with invalid catalog roots")
	}
	if err := db.SetTimeline(tli, hist); err != nil {
		return err
	}
	db.mu.Lock()
	db.boot.roots = roots
	db.boot.createdAt = createdAt
	db.mu.Unlock()
	return db.writeBoot()
}

// PersistBoot writes the boot record (a standby adopting a new lineage).
func (db *DB) PersistBoot() error { return db.writeBoot() }

// FlushStandby is a standby's checkpoint, which appends nothing to its
// shipped log: every dirty page written back, the data file synced, then
// one control append of the boot record, the checkpoints applied since the
// last one and extra, the replica's apply state. The replica's own
// checkpoint runs it, and so does a standby's Close, with the records Close
// is handed.
func (db *DB) FlushStandby(extra ...control.Record) error {
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.data.Sync(); err != nil {
		return err
	}
	return db.writeBoot(extra...)
}

// Control exposes the node's control file (a standby's apply state).
func (db *DB) Control() *control.File { return db.ctl }

// Promote flips a standby read-write after its apply loop has stopped: the
// given transactions (in flight at the promotion point, from the replica's
// incremental analysis state) are rolled back exactly as crash recovery
// would, and a fresh checkpoint gives the promoted database a clean
// recovery starting point. Redo must be complete through the end of the
// local log (repl.Replica.Promote drains it first); otherwise Promote
// returns ErrRedoIncomplete and the database stays a standby. The new
// lineage forks from the node's effective identity at its log end
// (wal.TimelineHistory.Fork); one that fails Validate is ErrBadLineage, and
// the database again stays a standby.
//
// A failed promotion is fail-stop: the undo pass may already have appended
// local CLRs, so the log is no longer a byte-identical copy of the
// primary's and the database must NOT re-arm as a standby — resuming the
// stream would interleave primary bytes after local-only records and serve
// CRC-valid garbage. The standby flag stays cleared; repl.Replica.Run
// refuses to stream for a non-standby engine.
func (db *DB) Promote(att []wal.ATTEntry) error {
	// The fork point is the last shipped byte: everything at or below it is
	// the ancestor timeline's history, everything after (the undo pass's
	// CLRs onward) belongs to the new timeline this promotion forks.
	fork := db.log.NextLSN() - 1
	if applied := db.AppliedLSN(); db.Standby() && applied != fork {
		return fmt.Errorf("%w: applied %v, local log ends at %v", ErrRedoIncomplete, applied, fork)
	}
	tli, hist := db.Timeline()
	tli, hist = hist.Fork(tli, fork)
	if err := hist.Validate(tli); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrBadLineage, wal.DescribeLineage(tli, hist), err)
	}
	if !db.standby.CompareAndSwap(true, false) {
		return errors.New("engine: promote of a non-standby database")
	}
	// The promoted record goes first, before the undo pass appends the
	// first local record: from here on OpenStandby refuses the directory.
	if err := db.ctl.Add(control.Record{Kind: control.KindPromoted}); err != nil {
		return fmt.Errorf("engine: promote (database needs recovery, not standby resumption): %w", err)
	}
	if err := db.UndoTransactions(att); err != nil {
		return fmt.Errorf("engine: promote undo (database needs recovery, not standby resumption): %w", err)
	}
	db.mu.Lock()
	db.boot.tli, db.boot.history = tli, hist
	db.mu.Unlock()
	// The post-promotion checkpoint persists the new lineage in both the
	// boot record and the checkpoint record, so downstream replicas adopt it
	// from the stream.
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("engine: promote checkpoint (database needs recovery, not standby resumption): %w", err)
	}
	return nil
}

// Timeline returns the node's current timeline and fork history. A fresh
// standby before its handshake, which has no lineage yet, is timeline 1
// with no history.
func (db *DB) Timeline() (wal.TimelineID, wal.TimelineHistory) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.boot.tli == 0 {
		return 1, nil
	}
	return db.boot.tli, db.boot.history.Clone()
}

// SetTimeline installs a lineage learned from the replication stream (a
// standby adopting its upstream's identity). Persistence is the caller's
// concern — PersistBoot once the standby is bootstrapped.
func (db *DB) SetTimeline(tli wal.TimelineID, hist wal.TimelineHistory) error {
	if err := hist.Validate(tli); err != nil {
		return err
	}
	db.mu.Lock()
	db.boot.tli, db.boot.history = tli, hist.Clone()
	db.mu.Unlock()
	return nil
}

// Closed reports whether the database has been closed (or crashed). The
// orchestrator's default primary health probe keys off it.
func (db *DB) Closed() bool { return db.closed.Load() }

// create formats a fresh database: boot page, first allocation map, and the
// bootstrap system transaction that builds the catalog trees.
func (db *DB) create() error {
	if err := db.data.Ensure(2); err != nil {
		return err
	}
	// Format the first allocation map page through the pool so it is part
	// of normal page management. Its format is logged under the bootstrap
	// transaction via the Alloc-free path below? No: map pages are
	// infrastructure — formatted directly; their log chains begin with the
	// first AllocBits record.
	mh, err := db.pool.NewPage(alloc.FirstMapPage)
	if err != nil {
		return err
	}
	mh.Page().Format(alloc.FirstMapPage, page.TypeAllocMap, 0)
	mh.MarkDirty()
	mh.Release()

	tx, err := db.Begin()
	if err != nil {
		return err
	}
	roots, err := catalog.Bootstrap(tx)
	if err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	db.mu.Lock()
	db.boot = bootBlock{roots: roots, createdAt: db.Now().UnixNano(), tli: 1}
	db.mu.Unlock()
	if err := db.writeBoot(); err != nil {
		return err
	}
	return db.Checkpoint()
}

func (db *DB) closeFiles() {
	db.log.Close()
	db.data.Close()
}

// Close checkpoints and closes the database. A standby — which must not
// append checkpoint records to its shipped log — runs FlushStandby(extra...)
// instead: the replica layer hands it its apply state, so a replica's close
// is one flush and one control append. A primary ignores extra.
func (db *DB) Close(extra ...control.Record) error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.obsSrv != nil {
		db.obsSrv.Close()
	}
	flush := db.Checkpoint
	if db.standby.Load() {
		flush = func() error { return db.FlushStandby(extra...) }
	}
	if err := flush(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		return err
	}
	return db.data.Close()
}

// Crash abandons the database without flushing anything — the unflushed WAL
// tail and dirty pages are lost, exactly like a power failure. The files
// remain on disk for a subsequent Open to recover. For tests and the
// recovery experiments.
func (db *DB) Crash() {
	db.closed.Store(true)
	// Intentionally do not flush or close; reopening uses the same paths.
}

// --- boot record (page 0 + the control file) ---

const bootPayload = 64 // offset of the boot block within page 0

const bootBlockSize = 40

// encode renders the fixed boot block and its timeline extension, tli u32 |
// nForks u32 | nForks × (tli u32, end u64): a boot record's body and page
// 0's payload.
func (b bootBlock) encode() []byte {
	buf := make([]byte, bootBlockSize+8+12*len(b.history))
	copy(buf, bootMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(b.roots.Tables))
	binary.LittleEndian.PutUint32(buf[12:], uint32(b.roots.Names))
	binary.LittleEndian.PutUint32(buf[16:], uint32(b.roots.Columns))
	binary.LittleEndian.PutUint64(buf[24:], uint64(b.lastCkptEnd))
	binary.LittleEndian.PutUint64(buf[32:], uint64(b.createdAt))
	binary.LittleEndian.PutUint32(buf[40:], uint32(b.tli))
	binary.LittleEndian.PutUint32(buf[44:], uint32(len(b.history)))
	for i, f := range b.history {
		binary.LittleEndian.PutUint32(buf[48+12*i:], uint32(f.TLI))
		binary.LittleEndian.PutUint64(buf[52+12*i:], uint64(f.End))
	}
	return buf
}

// decodeBoot parses a boot block and its timeline extension: a boot
// record's body, which holds nothing after them, or page 0's payload, which
// is zero past them (onPage).
func decodeBoot(src []byte, onPage bool) (bootBlock, error) {
	if len(src) < bootBlockSize+8 || string(src[:8]) != bootMagic {
		return bootBlock{}, errors.New("engine: bad boot magic")
	}
	if binary.LittleEndian.Uint32(src[20:]) != 0 {
		return bootBlock{}, errors.New("engine: boot block padding is not zero")
	}
	b := bootBlock{
		roots: catalog.Roots{
			Tables:  page.ID(binary.LittleEndian.Uint32(src[8:])),
			Names:   page.ID(binary.LittleEndian.Uint32(src[12:])),
			Columns: page.ID(binary.LittleEndian.Uint32(src[16:])),
		},
		lastCkptEnd: wal.LSN(binary.LittleEndian.Uint64(src[24:])),
		createdAt:   int64(binary.LittleEndian.Uint64(src[32:])),
		tli:         wal.TimelineID(binary.LittleEndian.Uint32(src[40:])),
	}
	if !b.roots.Valid() {
		return bootBlock{}, errors.New("engine: boot record has invalid catalog roots")
	}
	ext := src[bootBlockSize+8:]
	n := uint64(binary.LittleEndian.Uint32(src[44:]))
	if uint64(len(ext)) < 12*n {
		return bootBlock{}, fmt.Errorf("engine: boot timeline extension %d bytes for %d forks", len(ext), n)
	}
	if rest := ext[12*n:]; len(rest) > 0 && (!onPage || slices.ContainsFunc(rest, func(c byte) bool { return c != 0 })) {
		return bootBlock{}, errors.New("engine: bytes trail the boot block")
	}
	for i := range int(n) {
		b.history = append(b.history, wal.TimelineFork{
			TLI: wal.TimelineID(binary.LittleEndian.Uint32(ext[12*i:])),
			End: wal.LSN(binary.LittleEndian.Uint64(ext[4+12*i:])),
		})
	}
	if err := b.history.Validate(b.tli); err != nil {
		return bootBlock{}, err
	}
	return b, nil
}

// writeBoot makes one control append, built under the control file's mutex
// so concurrent checkpoints append in the order of the boot blocks they
// capture: the boot record, once there are catalog roots (a fresh standby
// has none before the stream's hello), the ckpt records of the indexed
// checkpoints the file lacks, and extra. The block goes to page 0 first,
// which keeps backup images self-describing.
func (db *DB) writeBoot(extra ...control.Record) error {
	return db.ctl.Append(func(saved wal.LSN) ([]control.Record, error) {
		db.mu.Lock()
		b := db.boot
		i := sort.Search(len(db.ckptIndex), func(i int) bool { return db.ckptIndex[i].End > saved })
		marks := slices.Clone(db.ckptIndex[i:])
		after := wal.NilLSN
		if i > 0 {
			after = db.ckptIndex[i-1].End
		}
		db.mu.Unlock()
		var recs []control.Record
		if b.roots.Valid() {
			body := b.encode()
			p := page.New()
			p.Format(alloc.BootPage, page.TypeBoot, 0)
			copy(p.Bytes()[bootPayload:], body)
			p.WriteChecksum()
			if err := db.data.WritePage(alloc.BootPage, p.Bytes()); err != nil {
				return nil, err
			}
			recs = append(recs, control.Record{Kind: control.KindBoot, Body: body})
		}
		times := db.log.TimeSamplesSince(after)
		for _, m := range marks {
			n := sort.Search(len(times), func(i int) bool { return times[i].LSN > m.End })
			recs = append(recs, control.Checkpoint{WallClock: m.WallClock, Begin: m.Begin, End: m.End, Times: times[:n]}.Record())
			times = times[n:]
		}
		return append(recs, extra...), nil
	})
}

// readBoot reads the control file's boot record, or page 0 when it has none
// that decodes (the file was lost, or a reseeded standby has written only
// its apply state to it).
func (db *DB) readBoot() error {
	b, err := bootBlock{}, errors.New("engine: no boot record")
	for _, r := range db.ctl.Records(control.KindBoot) {
		b, err = decodeBoot(r.Body, false)
	}
	if err != nil {
		p := page.New()
		if err := db.data.ReadPage(alloc.BootPage, p.Bytes()); err != nil {
			return err
		}
		if err := p.VerifyChecksum(); err != nil {
			return fmt.Errorf("engine: boot page: %w", err)
		}
		if b, err = decodeBoot(p.Bytes()[bootPayload:], true); err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.boot = b
	db.mu.Unlock()
	return nil
}

// DecodeBootRoots extracts the catalog roots from a raw boot page image.
// Used by the backup package when opening a restored copy without a full
// engine instance.
func DecodeBootRoots(buf []byte) (catalog.Roots, error) {
	if len(buf) != page.Size {
		return catalog.Roots{}, fmt.Errorf("engine: boot image is %d bytes", len(buf))
	}
	b, err := decodeBoot(buf[bootPayload:], true)
	return b.roots, err
}

// --- accessors used by the asof and backup packages ---

// Log exposes the WAL manager (read access for as-of machinery).
func (db *DB) Log() *wal.Manager { return db.log }

// Pool exposes the buffer pool (latched page copies for snapshots).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Data exposes the data file (sequential reads for backups).
func (db *DB) Data() *disk.File { return db.data }

// Roots returns the catalog roots.
func (db *DB) Roots() catalog.Roots {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.boot.roots
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Retention returns the configured undo interval (§4.3).
func (db *DB) Retention() time.Duration { return db.opts.Retention }

// SetRetention adjusts the undo interval at runtime
// (ALTER DATABASE ... SET UNDO_INTERVAL in the paper).
func (db *DB) SetRetention(d time.Duration) {
	db.mu.Lock()
	db.opts.Retention = d
	db.mu.Unlock()
}

// Now returns the engine's current wall-clock time.
func (db *DB) Now() time.Time { return db.opts.Clock.Now() }

// LastCheckpointEnd returns the LSN of the most recent checkpoint-end
// record (the §5.1 SplitLSN search starts here).
func (db *DB) LastCheckpointEnd() wal.LSN {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.boot.lastCkptEnd
}

// CreatedAt returns the database creation time.
func (db *DB) CreatedAt() time.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	return time.Unix(0, db.boot.createdAt)
}

// treeLock returns the shared tree-level lock for a root.
func (db *DB) treeLock(root page.ID) *sync.RWMutex {
	if l, ok := db.treeLocks.Load(root); ok {
		return l.(*sync.RWMutex)
	}
	l, _ := db.treeLocks.LoadOrStore(root, &sync.RWMutex{})
	return l.(*sync.RWMutex)
}

// ActiveTxns returns a snapshot of transactions that have logged anything,
// as checkpoint ATT entries.
func (db *DB) activeATT() []wal.ATTEntry {
	db.commitGate.Lock()
	defer db.commitGate.Unlock()
	var out []wal.ATTEntry
	for i := range db.txns {
		s := &db.txns[i]
		s.mu.Lock()
		for _, t := range s.txns {
			if t.begun.Load() && !t.endAppended.Load() && txnState(t.state.Load()) == txnActive {
				out = append(out, wal.ATTEntry{TxnID: t.id, LastLSN: wal.LSN(t.lastLSN.Load()), BeginLSN: wal.LSN(t.beginLSN.Load())})
			}
		}
		s.mu.Unlock()
	}
	return out
}
