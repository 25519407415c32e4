package asof

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/storage/page"
	"repro/internal/storage/sidefile"
	"repro/internal/txn"
	"repro/internal/wal"
)

// snapshotFrames sizes each snapshot's private buffer pool (256 pages =
// 2 MiB). maxBatchLeaves bounds one batch rewind (prepareBatch): the leaves
// a scan prepares ahead of its cursor and the leaves one GetMany step
// covers. It is a constant because nothing a caller knows could set it
// better: it has to stay well inside the snapshot pool, so a batch is still
// resident when its query reads it, and past a few dozen pages per walk
// there is nothing left to share — each log block is already read once.
const (
	snapshotFrames = 256
	maxBatchLeaves = 64
)

// Snapshot is an as-of database snapshot (§5): a read-only, transactionally
// consistent view of the database as of the SplitLSN, queryable through the
// same catalog and B-Tree machinery as the primary. Prior page versions are
// produced lazily — only for pages queries actually touch (§5.3) — and
// cached in a sparse side file.
//
// Its btree.Store — the read path of queries and the write path of the
// logical undo of in-flight transactions, never logged — is the embedded
// engine.UnloggedStore, whose pool reads through snapSource.
type Snapshot struct {
	*engine.UnloggedStore

	db    *engine.DB
	point SplitPoint
	asOf  time.Time

	side   *sidefile.File
	writer *sidefile.Writer // async write-behind front for side
	stats  Stats

	locks     *txn.LockManager // §5.2: locks of in-flight txns, reacquired
	lockOwner uint64           // lock-manager id owning the reacquired locks
	pending   atomic.Int32     // in-flight transactions not yet undone
	queryIDs  atomic.Uint64    // ephemeral reader ids for the lock barrier

	mu       sync.Mutex
	undoErr  error
	undoDone chan struct{}
	closed   bool
}

// CreateSnapshot mounts an as-of snapshot of db at the given wall-clock
// time (CREATE DATABASE ... AS SNAPSHOT OF ... AS OF '<time>'). sideDev is
// the media device charged for side-file I/O (nil = uncharged).
//
// Creation follows §5.1/§5.2: resolve the SplitLSN (checkpoint narrowing +
// commit scan), create the sparse side file, run the analysis pass and
// reacquire the locks of in-flight transactions, then open for queries
// while the logical undo of those transactions proceeds in the background.
// It takes no checkpoint: the snapshot reads pages through the primary's
// buffer pool, not its files (see newSnapshot).
func CreateSnapshot(db *engine.DB, asOf time.Time, sideDev *media.Device) (*Snapshot, error) {
	point, err := ResolveTime(db, asOf)
	if err != nil {
		return nil, err
	}
	return newSnapshot(db, point, asOf, sideDev)
}

// CreateSnapshotAtLSN mounts a snapshot at an explicit SplitLSN.
func CreateSnapshotAtLSN(db *engine.DB, split wal.LSN, sideDev *media.Device) (*Snapshot, error) {
	point, err := ResolveLSN(db, split)
	if err != nil {
		return nil, err
	}
	return newSnapshot(db, point, time.Time{}, sideDev)
}

func newSnapshot(db *engine.DB, point SplitPoint, asOf time.Time, sideDev *media.Device) (*Snapshot, error) {
	// "...performs a checkpoint to make sure that all pages of the primary
	// database with LSNs less than or equal to SplitLSN are made durable"
	// (§5.1). The paper's snapshot reads the primary's data files, so they
	// must hold every change up to the split. Ours reads the primary's
	// buffer pool (snapSource → copyPrimary), which is coherent with every
	// logged change whether or not it has reached the files, so the mount
	// takes no checkpoint, on a primary or a standby, and its redo pass
	// needs no page reads.
	//
	// On a standby the pool is coherent with redo only up to AppliedLSN,
	// and the shipped log may extend past it (bytes ingested but not yet
	// applied), hence the guard: a page fetched now reflects redo only
	// through AppliedLSN, and PreparePageAsOf can only rewind pages
	// backwards.
	if db.Standby() {
		if applied := db.AppliedLSN(); point.SplitLSN > applied {
			return nil, fmt.Errorf("%w: split %v > applied %v", ErrReplicaLagging, point.SplitLSN, applied)
		}
	}
	mountSpan := obs.StartSpan(db.Clock(),
		db.Obs().DurationHistogram("asof_mount_seconds", "snapshot mount latency (split resolution excluded) to open-for-queries"))
	// The side-file name rides the engine clock (not time.Now: core packages
	// are clock-gated) plus a process-wide sequence — virtual clocks are
	// frozen between advances, so a timestamp alone would collide.
	name := fmt.Sprintf("snap-%d-%d.side", db.Now().UnixNano(), snapSeq.Add(1))
	side, err := sidefile.Create(filepath.Join(db.Dir(), name), sideDev)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		db:        db,
		point:     point,
		asOf:      asOf,
		side:      side,
		writer:    sidefile.NewWriter(side),
		locks:     txn.NewLockManager(30 * time.Second),
		lockOwner: 1,
		undoDone:  make(chan struct{}),
	}
	s.UnloggedStore = engine.NewUnloggedStore(snapshotFrames, (*snapSource)(s), point.SplitLSN)
	s.pending.Store(int32(len(point.ATT)))

	// Redo pass (§5.2): no page I/O — the primary's pool holds every change
	// ≤ SplitLSN and PreparePageAsOf rewinds anything newer on access. What
	// remains of redo is reacquiring the locks held by in-flight
	// transactions so queries cannot observe their uncommitted effects
	// before undo fixes the pages.
	if err := s.reacquireLocks(); err != nil {
		s.writer.Close()
		side.Close()
		s.Pool().Destroy()
		return nil, err
	}

	// Logical undo runs in the background (§5.2), opening the snapshot for
	// queries immediately.
	go s.backgroundUndo()
	mountSpan.End()
	db.Obs().Counter("asof_snapshot_mounts_total", "as-of snapshots mounted").Inc()
	db.Obs().Gauge("asof_snapshots_open", "as-of snapshots currently mounted").Add(1)
	return s, nil
}

// snapSeq disambiguates side-file names minted at the same clock reading.
var snapSeq atomic.Int64

// SplitLSN returns the snapshot's recovery target.
func (s *Snapshot) SplitLSN() wal.LSN { return s.point.SplitLSN }

// Point returns the full resolved split point.
func (s *Snapshot) Point() SplitPoint { return s.point }

// AsOfTime returns the requested wall-clock time (zero if LSN-addressed).
func (s *Snapshot) AsOfTime() time.Time { return s.asOf }

// Stats exposes undo-work counters for the experiments.
func (s *Snapshot) Stats() *Stats { return &s.stats }

// SidePages returns the number of pages materialized for the snapshot
// (persisted in the side file or pending in its write-behind queue).
func (s *Snapshot) SidePages() int { return s.writer.Len() }

// WaitUndo blocks until background undo completes (tests and benchmarks).
func (s *Snapshot) WaitUndo() error {
	<-s.undoDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.undoErr
}

// Close drops the snapshot and removes its side file.
func (s *Snapshot) Close() error {
	<-s.undoDone // the background undo writes to the side file; let it end
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.writer.Close() // drain the write-behind queue
	if cerr := s.side.Close(); err == nil {
		err = cerr
	}
	s.Pool().Destroy() // recycle the snapshot's frames

	// Fold the snapshot's chain-walk work into the database-wide counters
	// (the per-snapshot Stats stay readable via Stats() while mounted; log
	// blocks read by the walks are wal_undo_reads_total).
	r := s.db.Obs()
	r.Counter("asof_chainwalk_pages_total", "pages rewound by as-of chain walks").Add(s.stats.PagesPrepared.Load())
	r.Counter("asof_chainwalk_records_total", "log records walked backwards by as-of prepares").Add(s.stats.RecordsUndone.Load())
	r.Counter("asof_image_restores_total", "full page images restored by as-of prepares").Add(s.stats.ImageRestores.Load())
	r.Counter("asof_batch_prepares_total", "merged chain walks that rewound several pages at once").Add(s.stats.BatchPrepares.Load())
	r.Counter("asof_batch_pages_total", "pages handed to merged chain walks").Add(s.stats.BatchPages.Load())
	ios, pages := s.side.WriteStats()
	r.Counter("sidefile_write_ios_total", "side-file device writes by as-of snapshots").Add(ios)
	r.Counter("sidefile_pages_written_total", "pages those side-file writes carried").Add(pages)
	r.Gauge("asof_snapshots_open", "as-of snapshots currently mounted").Add(-1)
	return err
}

// --- §5.3 page access protocol ---

// snapSource implements buffer.Source for the snapshot pool:
//
//	a. if the page is materialized for the snapshot (side file or its
//	   write-behind queue, where a batch rewind parks the pages it
//	   prepared), return it — a page the background undo already fixed
//	   always wins;
//	b. else read the page from the primary database (a latched copy through
//	   the primary buffer pool) and call PreparePageAsOf(page, SplitLSN) to
//	   undo it to the split;
//	c. enqueue the prepared page for the side file — the write happens on a
//	   background goroutine, so the rewound page is served immediately.
type snapSource Snapshot

func (src *snapSource) ReadPage(id page.ID, buf []byte) error {
	s := (*Snapshot)(src)
	ok, err := s.writer.Read(id, buf)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	if s.IsLocalPage(id) {
		return fmt.Errorf("asof: snapshot-local page %d lost from side file", id)
	}
	if err := copyPrimary(s.db, id, buf); err != nil {
		return err
	}
	p := page.FromBytes(buf)
	if err := PreparePageAsOf(p, s.point.SplitLSN, s.db.Log(), &s.stats); err != nil {
		return err
	}
	p.WriteChecksum()
	return s.writer.Enqueue(id, buf)
}

// copyPrimary copies the current content of page id out of the primary
// buffer pool under its shared latch.
func copyPrimary(db *engine.DB, id page.ID, buf []byte) error {
	h, err := db.Pool().Fetch(id, false)
	if err != nil {
		return err
	}
	copy(buf, h.Page().Bytes())
	h.Release()
	return nil
}

// prepareBatch rewinds the given distinct pages — those the snapshot has
// not materialized yet — in one merged chain walk (PreparePagesAsOf) and
// installs them in the snapshot pool. It is a prefetch: it changes what a
// later fetch of these pages costs, never what it returns.
//
// Installation goes through the side-file writer and the pool. The rewound
// pages are handed to the writer as one group (EnqueueNew), which reaches
// the side file as one device write once released, and each id is first
// fetched: the pool's loader — the only one per page, whoever it is — finds
// the page in the writer's pending set (snapSource.ReadPage) and pays no log
// walk and no side-file read.
//
// EnqueueNew fills only pages the writer holds no copy of, which is what
// keeps this safe. A page resident in the snapshot pool was loaded through
// ReadPage, which enqueued it, and from then on the pool's frame is at
// least as new as the writer's copy: that copy is replaced only by the
// frame's eviction (WritePage → Enqueue). So a page fixed by the background
// undo, or rewound by a concurrent loader, keeps its copy, and this batch's
// copy of it is dropped unused.
func (s *Snapshot) prepareBatch(ids []page.ID) error {
	var want []page.ID
	for _, id := range ids {
		if !s.IsLocalPage(id) && !s.writer.Has(id) {
			want = append(want, id)
		}
	}
	if len(want) < 2 {
		return nil // one page shares a walk with nobody: its fetch rewinds it
	}
	pages := make([]*page.Page, len(want))
	for i, id := range want {
		pages[i] = page.New()
		if err := copyPrimary(s.db, id, pages[i].Bytes()); err != nil {
			return err
		}
	}
	s.stats.BatchPrepares.Add(1)
	s.stats.BatchPages.Add(int64(len(want)))
	if err := PreparePagesAsOf(pages, s.point.SplitLSN, s.db.Log(), &s.stats); err != nil {
		return err
	}
	bufs := make([][]byte, len(pages))
	for i, p := range pages {
		p.WriteChecksum()
		bufs[i] = p.Bytes()
	}
	release, err := s.writer.EnqueueNew(want, bufs)
	if err != nil {
		return err
	}
	defer release() // written once fetched: no fetch reads its page back
	for _, id := range want {
		h, err := s.Pool().Fetch(id, false)
		if err != nil {
			return err
		}
		h.Release()
	}
	return nil
}

func (src *snapSource) WritePage(id page.ID, buf []byte) error {
	// Dirty snapshot pages (undo fixes, snapshot-local allocations) funnel
	// through the same write-behind queue as freshly rewound pages, so
	// per-page latest-wins ordering holds across both paths.
	return (*Snapshot)(src).writer.Enqueue(id, buf)
}

// --- §5.2: lock reacquisition and background logical undo ---

// reacquireLocks takes, on the snapshot's private lock table, an exclusive
// lock for every row an in-flight transaction modified at or before the
// SplitLSN. Queries take the shared side of these locks, so they block on
// exactly the rows whose undo is still pending.
func (s *Snapshot) reacquireLocks() error {
	rdr := s.db.Log().ChainReader()
	defer rdr.Close()
	for _, e := range s.point.ATT {
		_, err := wal.WalkTxnChain(rdr.Read, e.LastLSN, func(rec *wal.Record) error {
			switch rec.Type {
			case wal.TypeInsert, wal.TypeDelete, wal.TypeUpdate:
				key, err := rec.RowKey()
				if err != nil {
					return fmt.Errorf("at %v: %w", rec.LSN, err)
				}
				s.lockRowX(rec.ObjectID, key)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("asof: lock reacquisition: %w", err)
		}
	}
	return nil
}

func (s *Snapshot) lockRowX(objectID uint32, key []byte) {
	// The snapshot lock table has a single writer (the undo owner), so
	// these acquisitions never block.
	_ = s.locks.Lock(s.lockOwner, txn.Key{Object: objectID, Row: string(key)}, txn.Exclusive)
}

// backgroundUndo logically undoes the in-flight transactions against the
// snapshot (§5.2) with the shared unlogged undo (engine.UnloggedStore.UndoTxn):
// rows are re-located by key through the snapshot's as-of B-Trees and inverse
// operations applied, the fixed pages landing in the side file. Queries
// proceed concurrently, blocked only by the reacquired locks of rows not yet
// undone.
//
// Transactions are undone in parallel: they held exclusive row locks at
// the SplitLSN, so their row sets are disjoint, and page-level ordering is
// enforced by the snapshot pool's latches (each worker walks its own chain
// through a private ChainReader). Workers are capped so undo cannot starve
// concurrent snapshot queries.
func (s *Snapshot) backgroundUndo() {
	defer close(s.undoDone)
	att := s.point.ATT
	// Cap by transaction count, not GOMAXPROCS: undo workers spend much of
	// their time blocked on page latches, tree locks and log-block reads,
	// so a few goroutines overlap usefully even on one core.
	workers := len(att)
	if workers > 4 {
		workers = 4
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		work     = make(chan wal.ATTEntry)
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				rdr := s.db.Log().ChainReader()
				err := s.UndoTxn(rdr.Read, e)
				rdr.Close()
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("asof: snapshot %w", err)
					}
					errMu.Unlock()
				}
				s.pending.Add(-1)
			}
		}()
	}
	for _, e := range att {
		work <- e
	}
	close(work)
	wg.Wait()
	// All transactions undone: release every reacquired lock.
	s.locks.ReleaseAll(s.lockOwner)
	if firstErr != nil {
		s.mu.Lock()
		s.undoErr = firstErr
		s.mu.Unlock()
	}
}

// --- read-only query API (mirrors the engine's DML read surface) ---

// barrier blocks until the given row is no longer covered by an in-flight
// transaction's reacquired lock.
func (s *Snapshot) barrier(objectID uint32, key []byte) error {
	if s.pending.Load() == 0 {
		return nil
	}
	qid := s.queryIDs.Add(1) + 1000 // distinct from lockOwner
	k := txn.Key{Object: objectID, Row: string(key)}
	if err := s.locks.Lock(qid, k, txn.Shared); err != nil {
		return fmt.Errorf("asof: query blocked on in-flight undo: %w", err)
	}
	s.locks.ReleaseAll(qid)
	return nil
}

// Table resolves a table by name in the as-of catalog: a table dropped
// after the split is still here, with its schema — the §1 walkthrough.
func (s *Snapshot) Table(name string) (catalog.Table, error) {
	return catalog.LookupByName(s, s.db.Roots(), name)
}

// Tables lists the as-of catalog.
func (s *Snapshot) Tables() ([]catalog.Table, error) {
	return catalog.List(s, s.db.Roots())
}

// Columns returns the as-of column metadata for a table.
func (s *Snapshot) Columns(id uint32) ([]row.Column, error) {
	return catalog.Columns(s, s.db.Roots(), id)
}

// Get fetches a row by primary key as of the snapshot time.
func (s *Snapshot) Get(table string, keyVals row.Row) (row.Row, bool, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, false, err
	}
	key := row.EncodeKey(keyVals)
	// The barrier keys by root page id — the object id carried in log
	// records and used by lock reacquisition.
	if err := s.barrier(uint32(t.Root), key); err != nil {
		return nil, false, err
	}
	return s.getRow(t.Root, key)
}

func (s *Snapshot) getRow(root page.ID, key []byte) (row.Row, bool, error) {
	val, ok, err := btree.Get(s, root, key)
	if err != nil || !ok {
		return nil, false, err
	}
	r, err := row.Decode(val)
	return r, true, err
}

// GetMany fetches the rows with the given primary keys as of the snapshot
// time; the result has one entry per key, nil where no row exists. It
// answers what a Get per key answers, but learns first which leaves the
// keys live on and rewinds those together (prepareBatch), so the log region
// between the split and now is read once for all of them instead of once
// per leaf. Keys sorted by the caller keep each step's leaves adjacent.
func (s *Snapshot) GetMany(table string, keys []row.Row) ([]row.Row, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	enc := make([][]byte, len(keys))
	for i, k := range keys {
		enc[i] = row.EncodeKey(k)
		if err := s.barrier(uint32(t.Root), enc[i]); err != nil {
			return nil, err
		}
	}
	out := make([]row.Row, len(keys))
	for start := 0; start < len(keys); {
		// One step: the next keys, as many as maxBatchLeaves leaves hold.
		var leaves []page.ID
		end := start
		for ; end < len(keys); end++ {
			id, err := btree.LeafOf(s, t.Root, enc[end])
			if err != nil {
				return nil, err
			}
			if id == page.InvalidID || slices.Contains(leaves, id) {
				continue
			}
			if len(leaves) == maxBatchLeaves {
				break
			}
			leaves = append(leaves, id)
		}
		if err := s.prepareBatch(leaves); err != nil {
			return nil, err
		}
		for ; start < end; start++ {
			if out[start], _, err = s.getRow(t.Root, enc[start]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Scan iterates rows as of the snapshot time, primary keys in [from, to).
//
// Point reads block per-row on the reacquired locks; scans instead drain
// the background undo first — a row deleted by an in-flight transaction is
// not yet back in the tree, and no key exists for a scan to block on (SQL
// Server closes this with key-range locks; we trade a short wait, bounded
// by the in-flight transactions' sizes, for that machinery).
func (s *Snapshot) Scan(table string, from, to row.Row, fn func(row.Row) bool) error {
	if s.pending.Load() > 0 {
		if err := s.WaitUndo(); err != nil {
			return err
		}
	}
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	var fromKey, toKey []byte
	if from != nil {
		fromKey = row.EncodeKey(from)
	}
	if to != nil {
		toKey = row.EncodeKey(to)
	}
	var inner error
	err = s.scanTree(t.Root, fromKey, toKey, func(_, val []byte) bool {
		r, err := row.Decode(val)
		if err != nil {
			inner = err
			return false
		}
		return fn(r)
	})
	if err == nil {
		err = inner
	}
	return err
}

// scanTree is btree.Scan over the snapshot with the leaves rewound ahead of
// the cursor: under a level-1 node the leaves the range covers are known
// before any is fetched (btree.LeafRun), so they are prepared together, in
// chunks that double from 2 up to maxBatchLeaves. A scan whose callback
// stops early has thus prepared at most twice the leaves it read, and a
// bounded range prepares only its own. The caller has drained the
// background undo, so the tree is static.
func (s *Snapshot) scanTree(root page.ID, from, to []byte, fn func(key, val []byte) bool) error {
	stopped := false
	visit := func(k, v []byte) bool {
		stopped = !fn(k, v)
		return !stopped
	}
	chunk := 2
	for {
		run, next, err := btree.LeafRun(s, root, from, to)
		if err != nil {
			return err
		}
		if len(run) == 0 { // the root is the only leaf
			return btree.Scan(s, root, from, to, fn)
		}
		for len(run) > 0 {
			n := min(chunk, len(run))
			ids := make([]page.ID, n)
			for i := range ids {
				ids[i] = run[i].ID
			}
			if err := s.prepareBatch(ids); err != nil {
				return err
			}
			// The chunk ends where the next leaf begins; the last chunk
			// under this node ends where the descent moves on, or at to.
			end := next
			if n < len(run) {
				end = run[n].Low
			} else if next == nil {
				end = to
			}
			if err := btree.Scan(s, root, from, end, visit); err != nil || stopped {
				return err
			}
			from, run = end, run[n:]
			chunk = min(2*chunk, maxBatchLeaves)
		}
		if next == nil {
			return nil
		}
	}
}

// CountRows counts rows as of the snapshot time.
func (s *Snapshot) CountRows(table string, from, to row.Row) (int, error) {
	n := 0
	err := s.Scan(table, from, to, func(row.Row) bool {
		n++
		return true
	})
	return n, err
}

// ScanIndex iterates rows whose indexed columns equal vals as of the
// snapshot time, through the as-of image of the secondary index. Index
// pages are ordinary data pages, so they rewind with exactly the same
// PreparePageAsOf mechanism — §7.2's argument made concrete. A snapshot
// mounted before the index existed does not see it (metadata time-travels
// too).
func (s *Snapshot) ScanIndex(idxName string, vals row.Row, fn func(row.Row) bool) error {
	if s.pending.Load() > 0 {
		if err := s.WaitUndo(); err != nil {
			return err
		}
	}
	ix, err := catalog.LookupIndex(s, s.db.Roots(), idxName)
	if err != nil {
		return err
	}
	t, err := catalog.LookupByID(s, s.db.Roots(), ix.TableID)
	if err != nil {
		return err
	}
	prefix := row.EncodeKey(vals)
	upper := row.PrefixSuccessor(prefix)
	var inner error
	err = s.scanTree(ix.Root, prefix, upper, func(_, pkEnc []byte) bool {
		pk, err := row.Decode(pkEnc)
		if err != nil {
			inner = err
			return false
		}
		val, ok, err := btree.Get(s, t.Root, row.EncodeKey(pk))
		if err != nil {
			inner = err
			return false
		}
		if !ok {
			inner = fmt.Errorf("asof: index %q dangling as-of entry", idxName)
			return false
		}
		r, err := row.Decode(val)
		if err != nil {
			inner = err
			return false
		}
		return fn(r)
	})
	if err == nil {
		err = inner
	}
	return err
}
