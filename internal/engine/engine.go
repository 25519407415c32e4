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
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/clock"
	"repro/internal/fsutil"
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
	// Now supplies wall-clock time; experiments install a virtual clock so
	// "N minutes back" is deterministic. Default time.Now. Clock, when set,
	// takes precedence — the injected-interface form of the same knob
	// (internal/clock); every engine wall-clock reading and the WAL's clock
	// go through it, so time-index, retention and replication-lag tests are
	// deterministic.
	Now   func() time.Time
	Clock clock.Clock
	// CheckpointEvery, if positive, makes the engine take a checkpoint
	// after that much log has been generated since the last one
	// (approximating the paper's target recovery interval).
	CheckpointEvery int64

	// SyncPolicy selects log-force durability: wal.SyncNone (buffered
	// writes, the seed crash model — a process crash loses nothing, a power
	// failure may lose the tail) or wal.SyncData (an fdatasync-class sync
	// per group-commit flush, real durability on real devices).
	// Checkpoints inherit the policy end to end: data.db is synced and the
	// boot metadata is replaced via atomic rename+fsync.
	SyncPolicy wal.SyncPolicy
	// LogSegmentBytes is the WAL segment-file capacity (default 64 MiB).
	// Retention drops whole sealed segments, so the segment size bounds
	// both retention granularity and the unit of archive shipping.
	LogSegmentBytes int64
	// LogArchiveDir, when set, receives sealed segments dropped by
	// retention instead of deleting them; archived segments reseed replicas
	// whose subscription predates the retention horizon and serve restores
	// past it.
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

	// Ablation switches (see DESIGN.md).
	//
	// DisableCLRUndoInfo strips undo information from CLRs, reverting §4.2
	// extension 2. As-of queries crossing a rolled-back transaction fail.
	DisableCLRUndoInfo bool
	// DisablePreformat skips preformat records on re-allocation, reverting
	// §4.2 extension 1. As-of queries across a page re-allocation fail.
	DisablePreformat bool
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
	// Keep the legacy func-field in sync: internal call sites read opts.Now.
	out.Now = out.Clock.Now
	return out
}

// DB is an open database.
type DB struct {
	opts Options
	dir  string

	data *disk.File
	log  *wal.Manager
	pool *buffer.Pool

	locks *txn.LockManager

	mu            sync.Mutex // guards boot and ckpt bookkeeping
	txns          [txnShards]txnShard
	treeLocks     sync.Map // page.ID -> *sync.RWMutex; read-mostly after warmup
	boot          bootBlock
	lastCkptAt    wal.LSN // log size when the last auto checkpoint ran
	ckptIndex     []CkptMark
	attMarks      []AnalysisMark // volatile analysis seeds, LSN order
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
	// branch ended. tli 0 means "not yet known" — a fresh standby before its
	// first handshake, or metadata written before timelines existed, both of
	// which read back as timeline 1 with an empty history.
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
// standby whose directory already holds shipped state reseeds its
// checkpoint and time→LSN indexes from the local log copy exactly like a
// primary would at open.
func OpenStandby(dir string, opts Options) (*DB, error) { return open(dir, opts, true) }

// open is the one body of Open and OpenStandby.
func open(dir string, opts Options, standby bool) (*DB, error) {
	opts = opts.withDefaults()
	// Before data.db or anything else is created: a refused directory is
	// left byte-identical.
	if err := wal.RefuseUnreadable(filepath.Join(dir, "wal")); err != nil {
		return nil, err
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
// existing database reads its boot page and checkpoint chain and, unless it
// is a standby, recovers.
func (db *DB) start(standby bool) error {
	if db.data.PageCount() == 0 {
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
	if err := db.rebuildCkptIndex(); err != nil {
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

// InitStandbyBoot installs the primary's catalog roots and creation time on
// a fresh standby and persists the boot page. The roots never change after
// database creation, so shipping them once in the stream handshake replaces
// the (unlogged) bootstrap that created them on the primary.
func (db *DB) InitStandbyBoot(roots catalog.Roots, createdAt int64) error {
	if !roots.Valid() {
		return errors.New("engine: standby boot with invalid catalog roots")
	}
	db.mu.Lock()
	db.boot.roots = roots
	db.boot.createdAt = createdAt
	db.mu.Unlock()
	return db.writeBoot()
}

// NoteCheckpoint records a primary checkpoint observed in the shipped
// stream: it joins the in-memory checkpoint index (the §5.1 SplitLSN
// narrowing works on the standby) and becomes the boot page's recovery
// hint, so a standby restart reseeds its indexes from the same chain walk a
// primary uses. The boot page write is deferred to the replica's own
// checkpoint cadence (persistBoot), keeping stream apply cheap.
func (db *DB) NoteCheckpoint(mark CkptMark) {
	db.mu.Lock()
	if n := len(db.ckptIndex); n == 0 || db.ckptIndex[n-1].End < mark.End {
		db.ckptIndex = append(db.ckptIndex, mark)
		db.boot.lastCkptEnd = mark.End
	}
	db.mu.Unlock()
}

// PersistBoot flushes the boot page (a standby adopting a new lineage; a
// primary persists it inside Checkpoint).
func (db *DB) PersistBoot() error { return db.writeBoot() }

// FlushStandby is a standby's checkpoint, which appends nothing to its
// shipped log: every dirty page written back, the data file synced, and the
// boot page persisted once the stream has bootstrapped it. Close runs it, and
// so does the replica's own checkpoint.
func (db *DB) FlushStandby() error {
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.data.Sync(); err != nil {
		return err
	}
	if db.Bootstrapped() {
		return db.writeBoot()
	}
	return nil
}

// Promote flips a standby read-write after its apply loop has stopped: the
// given transactions (in flight at the promotion point, from the replica's
// incremental analysis state) are rolled back exactly as crash recovery
// would, and a fresh checkpoint gives the promoted database a clean
// recovery starting point. Redo must be complete through the end of the
// local log (repl.Replica.Promote drains it first); otherwise Promote
// returns ErrRedoIncomplete and the database stays a standby.
//
// A failed promotion is fail-stop: the undo pass may already have appended
// local CLRs, so the log is no longer a byte-identical copy of the
// primary's and the database must NOT re-arm as a standby — resuming the
// stream would interleave primary bytes after local-only records and serve
// CRC-valid garbage. The standby flag stays cleared; repl.Replica.Run
// refuses to stream for a non-standby engine.
func (db *DB) Promote(att []wal.ATTEntry) error {
	if applied, end := db.AppliedLSN(), db.log.NextLSN()-1; db.Standby() && applied != end {
		return fmt.Errorf("%w: applied %v, local log ends at %v", ErrRedoIncomplete, applied, end)
	}
	if !db.standby.CompareAndSwap(true, false) {
		return errors.New("engine: promote of a non-standby database")
	}
	// The fork point is the last shipped byte: everything at or below it is
	// the ancestor timeline's history, everything after (the undo pass's
	// CLRs onward) belongs to the new timeline this promotion forks.
	fork := db.log.NextLSN() - 1
	if err := db.UndoTransactions(att); err != nil {
		return fmt.Errorf("engine: promote undo (database needs recovery, not standby resumption): %w", err)
	}
	db.mu.Lock()
	cur := db.boot.tli
	if cur == 0 {
		cur = 1
	}
	db.boot.history = append(db.boot.history.Clone(), wal.TimelineFork{TLI: cur, End: fork})
	db.boot.tli = cur + 1
	db.mu.Unlock()
	// The post-promotion checkpoint persists the new lineage in both the
	// boot metadata and the checkpoint record, so downstream replicas adopt
	// it from the stream.
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("engine: promote checkpoint (database needs recovery, not standby resumption): %w", err)
	}
	return nil
}

// Timeline returns the node's current timeline and fork history. A node
// whose lineage was never recorded (fresh standby before its handshake, or
// a database from before timelines existed) is timeline 1 with no history.
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
	db.boot = bootBlock{roots: roots, createdAt: db.opts.Now().UnixNano(), tli: 1}
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
// append checkpoint records to its shipped log — runs FlushStandby instead;
// its durable apply position is managed by the replica layer.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.obsSrv != nil {
		db.obsSrv.Close()
	}
	flush := db.Checkpoint
	if db.standby.Load() {
		flush = db.FlushStandby
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

// --- boot record (page 0 + boot.meta) ---

const bootPayload = 64 // offset of the boot block within page 0

// bootMetaName is the sidecar boot-metadata file: the same block as page 0,
// CRC-guarded, replaced via write-temp + fsync + atomic rename. The page-0
// copy keeps backup images self-describing; the sidecar is what makes the
// checkpoint pointer crash-atomic — an in-place page write can tear, a
// rename cannot, so a post-checkpoint crash under SyncData can never read a
// stale (or half-written) boot record.
const bootMetaName = "boot.meta"

const bootBlockSize = 40

// encodeBlock renders the fixed boot block into dst (at least bootBlockSize
// bytes).
func (b bootBlock) encodeBlock(dst []byte) {
	copy(dst, bootMagic)
	binary.LittleEndian.PutUint32(dst[8:], uint32(b.roots.Tables))
	binary.LittleEndian.PutUint32(dst[12:], uint32(b.roots.Names))
	binary.LittleEndian.PutUint32(dst[16:], uint32(b.roots.Columns))
	binary.LittleEndian.PutUint64(dst[24:], uint64(b.lastCkptEnd))
	binary.LittleEndian.PutUint64(dst[32:], uint64(b.createdAt))
}

// decodeBootBlock parses the fixed boot block (at least bootBlockSize bytes);
// the timeline fields are left zero.
func decodeBootBlock(src []byte) (bootBlock, error) {
	if string(src[:8]) != bootMagic {
		return bootBlock{}, errors.New("engine: bad boot magic")
	}
	b := bootBlock{
		roots: catalog.Roots{
			Tables:  page.ID(binary.LittleEndian.Uint32(src[8:])),
			Names:   page.ID(binary.LittleEndian.Uint32(src[12:])),
			Columns: page.ID(binary.LittleEndian.Uint32(src[16:])),
		},
		lastCkptEnd: wal.LSN(binary.LittleEndian.Uint64(src[24:])),
		createdAt:   int64(binary.LittleEndian.Uint64(src[32:])),
	}
	if !b.roots.Valid() {
		return bootBlock{}, errors.New("engine: boot record has invalid catalog roots")
	}
	return b, nil
}

// encodeTimeline renders the timeline extension that follows the fixed
// boot block: tli u32 | nForks u32 | nForks × (tli u32, end u64). A tli of
// 0 (lineage not yet known) encodes as an all-zero header, which is also
// what pre-timeline boot pages contain past the block — both read back as
// "legacy".
func (b bootBlock) encodeTimeline() []byte {
	buf := make([]byte, 8+12*len(b.history))
	binary.LittleEndian.PutUint32(buf, uint32(b.tli))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(b.history)))
	for i, f := range b.history {
		binary.LittleEndian.PutUint32(buf[8+12*i:], uint32(f.TLI))
		binary.LittleEndian.PutUint64(buf[12+12*i:], uint64(f.End))
	}
	return buf
}

// decodeBootTimeline parses a timeline extension (the bytes after the
// fixed boot block). Missing or all-zero extensions are the pre-timeline
// layout and upgrade to timeline 1 with an empty history.
func decodeBootTimeline(b []byte) (wal.TimelineID, wal.TimelineHistory, error) {
	if len(b) < 8 {
		return 1, nil, nil // pre-timeline layout
	}
	tli := wal.TimelineID(binary.LittleEndian.Uint32(b))
	if tli == 0 {
		return 1, nil, nil // pre-timeline layout (zero fill)
	}
	n := uint64(binary.LittleEndian.Uint32(b[4:]))
	if uint64(len(b)) < 8+12*n {
		return 0, nil, fmt.Errorf("engine: boot timeline extension %d bytes for %d forks", len(b), n)
	}
	var hist wal.TimelineHistory
	for i := range int(n) {
		hist = append(hist, wal.TimelineFork{
			TLI: wal.TimelineID(binary.LittleEndian.Uint32(b[8+12*i:])),
			End: wal.LSN(binary.LittleEndian.Uint64(b[12+12*i:])),
		})
	}
	if err := hist.Validate(tli); err != nil {
		return 0, nil, err
	}
	return tli, hist, nil
}

// decodeBoot parses a boot block followed by its timeline extension — the
// payload of page 0 and of boot.meta.
func decodeBoot(src []byte) (bootBlock, error) {
	b, err := decodeBootBlock(src)
	if err != nil {
		return bootBlock{}, err
	}
	b.tli, b.history, err = decodeBootTimeline(src[bootBlockSize:])
	return b, err
}

// encodeBootMeta renders b as a boot.meta sidecar: block, timeline
// extension, and a CRC of both.
func encodeBootMeta(b bootBlock) []byte {
	ext := b.encodeTimeline()
	buf := make([]byte, bootBlockSize+len(ext)+4)
	b.encodeBlock(buf)
	copy(buf[bootBlockSize:], ext)
	binary.LittleEndian.PutUint32(buf[bootBlockSize+len(ext):], crc32.ChecksumIEEE(buf[:bootBlockSize+len(ext)]))
	return buf
}

// parseBootMeta reads a boot.meta sidecar. Pre-timeline sidecars are exactly
// block + CRC (44 bytes) and read back as timeline 1.
func parseBootMeta(buf []byte) (bootBlock, error) {
	if len(buf) < bootBlockSize+4 {
		return bootBlock{}, fmt.Errorf("engine: boot meta is %d bytes", len(buf))
	}
	body := buf[:len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return bootBlock{}, errors.New("engine: boot meta checksum mismatch")
	}
	return decodeBoot(body)
}

func (db *DB) bootMetaPath() string { return filepath.Join(db.dir, bootMetaName) }

func (db *DB) writeBoot() error {
	db.mu.Lock()
	b := db.boot
	db.mu.Unlock()
	p := page.New()
	p.Format(alloc.BootPage, page.TypeBoot, 0)
	b.encodeBlock(p.Bytes()[bootPayload:])
	copy(p.Bytes()[bootPayload+bootBlockSize:], b.encodeTimeline())
	p.WriteChecksum()
	if err := db.data.WritePage(alloc.BootPage, p.Bytes()); err != nil {
		return err
	}
	// Sidecar second: on success readBoot prefers it; a crash in between
	// leaves the previous sidecar, whose older checkpoint pointer is a
	// valid (merely earlier) recovery starting hint.
	if err := fsutil.AtomicWriteFile(db.bootMetaPath(), encodeBootMeta(b), db.opts.SyncPolicy == wal.SyncData); err != nil {
		return fmt.Errorf("engine: boot meta: %w", err)
	}
	return nil
}

func (db *DB) readBoot() error {
	// Prefer the crash-atomic sidecar; fall back to page 0 (pre-sidecar
	// databases, or a sidecar lost with its directory entry or unreadable).
	var b bootBlock
	buf, err := os.ReadFile(db.bootMetaPath())
	if err == nil {
		b, err = parseBootMeta(buf)
	}
	if err != nil {
		p := page.New()
		if err := db.data.ReadPage(alloc.BootPage, p.Bytes()); err != nil {
			return err
		}
		if err := p.VerifyChecksum(); err != nil {
			return fmt.Errorf("engine: boot page: %w", err)
		}
		if b, err = decodeBoot(p.Bytes()[bootPayload:]); err != nil {
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
	b, err := decodeBootBlock(buf[bootPayload:])
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
func (db *DB) Now() time.Time { return db.opts.Now() }

// LastCheckpointEnd returns the LSN of the most recent checkpoint-end
// record (the §5.1 SplitLSN search starts here).
func (db *DB) LastCheckpointEnd() wal.LSN {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.boot.lastCkptEnd
}

// CkptMark is one entry of the in-memory checkpoint index: the wall-clock
// time and begin/end LSNs of a completed checkpoint. The index is what lets
// the SplitLSN search (§5.1) narrow the log region without reading
// checkpoint records back from disk; it is rebuilt from the on-disk
// checkpoint chain when the database opens.
type CkptMark struct {
	WallClock int64
	Begin     wal.LSN
	End       wal.LSN
}

// LastCheckpointMark returns the most recent completed checkpoint's mark.
// ok is false when no checkpoint has completed yet.
func (db *DB) LastCheckpointMark() (CkptMark, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.ckptIndex) == 0 {
		return CkptMark{}, false
	}
	return db.ckptIndex[len(db.ckptIndex)-1], true
}

// CheckpointIndex returns the checkpoint marks in LSN order (oldest first).
func (db *DB) CheckpointIndex() []CkptMark {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]CkptMark, len(db.ckptIndex))
	copy(out, db.ckptIndex)
	return out
}

// rebuildCkptIndex walks the on-disk checkpoint chain backwards once at
// open time and materializes the in-memory index, reseeding the log's
// sparse time→LSN index from the samples each checkpoint carried.
func (db *DB) rebuildCkptIndex() error {
	var marks []CkptMark
	var samples []wal.TimeSample
	cur := db.LastCheckpointEnd()
	for cur != wal.NilLSN {
		if cur >= db.log.NextLSN() {
			// The boot record points past the local log: a reseeded standby
			// whose log begins at the backup checkpoint and has not yet
			// ingested that far. The stream (NoteCheckpoint) rebuilds the
			// index as those records arrive.
			break
		}
		rec, err := db.log.Read(cur)
		if err != nil {
			if errors.Is(err, wal.ErrTruncated) {
				break
			}
			return err
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return err
		}
		marks = append(marks, CkptMark{WallClock: rec.WallClock, Begin: data.BeginLSN, End: rec.LSN})
		samples = append(samples, data.Times...)
		cur = data.PrevEnd
	}
	// Reverse into LSN order (the walk collected newest-first; each
	// checkpoint's own samples are already oldest-first, so sort once).
	for i, j := 0, len(marks)-1; i < j; i, j = i+1, j-1 {
		marks[i], marks[j] = marks[j], marks[i]
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].LSN < samples[j].LSN })
	db.log.SeedTimeIndex(samples)
	db.mu.Lock()
	db.ckptIndex = marks
	db.mu.Unlock()
	return nil
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
