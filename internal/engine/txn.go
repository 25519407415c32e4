package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/storage/buffer"
	"repro/internal/storage/disk"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

type txnState int

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

// Txn is a transaction. It implements btree.Store: every page operation it
// performs is logged with the per-page chain fields (PrevPageLSN) and — when
// the transaction is rolling back — as compensation log records that carry
// undo information (§4.2 extension 2).
type Txn struct {
	db    *DB
	id    uint64
	state atomic.Int32 // txnState

	// begun/beginLSN/lastLSN/state are the transaction-chain fields the
	// checkpointer's ATT snapshot reads concurrently with the owning
	// goroutine's updates, hence the atomics; all other access is
	// single-goroutine.
	begun    atomic.Bool // has logged its Begin record
	beginLSN atomic.Uint64
	lastLSN  atomic.Uint64
	// endAppended flips, under the engine's commitGate, the moment the
	// commit/abort record is appended — the point the transaction must stop
	// appearing in checkpoint ATT snapshots.
	endAppended atomic.Bool

	rollingBack bool
	undoNext    wal.LSN // UndoNextLSN for CLRs generated during rollback

	// didDDL marks transactions that changed the catalog; they bypass and
	// then invalidate the engine's index cache.
	didDDL bool

	// ntaDepth counts open nested top actions; records logged inside one
	// carry wal.FlagNTA (see that flag's doc).
	ntaDepth int

	// commitLSN is the LSN of the commit record once Commit returns — the
	// read-your-writes session token: any node (primary or standby) whose
	// applied/durable position is at or past it observes this transaction's
	// effects. NilLSN until committed, and for read-only transactions, which
	// log no commit record and advance no session.
	commitLSN wal.LSN

	// rec is a scratch record reused by the slot-operation hot path
	// (InsertRec/UpdateRec/DeleteRec). Safe because a transaction runs on
	// one goroutine and Append serializes the record into the log tail
	// before returning, so nothing retains the pointer. ctlRec is the same
	// for transaction-control records (Begin/Commit/Abort) — a separate
	// scratch because ensureBegun runs while rec is in flight.
	rec    wal.Record
	ctlRec wal.Record
	extra  []byte // backs rec.Extra of update records
}

// Begin starts a transaction.
func (db *DB) Begin() (*Txn, error) {
	if db.closed.Load() {
		return nil, errors.New("engine: database closed")
	}
	if db.standby.Load() {
		return nil, ErrStandby
	}
	t := &Txn{db: db, id: db.nextTxnID.Add(1)}
	db.registerTxn(t)
	db.metrics.activeTxns.Add(1)
	return t, nil
}

// ID returns the transaction id.
func (tx *Txn) ID() uint64 { return tx.id }

// CommitLSN returns the durable LSN of the transaction's commit record —
// the read-your-writes session token (repl.Session.Observe): a read routed
// to any node whose applied LSN has reached it is guaranteed to see this
// transaction. NilLSN before Commit returns and for read-only transactions
// (they log nothing, so they constrain no later read).
func (tx *Txn) CommitLSN() wal.LSN { return tx.commitLSN }

func (tx *Txn) ensureBegun() error {
	if tx.begun.Load() {
		return nil
	}
	tx.ctlRec = wal.Record{
		Type:      wal.TypeBegin,
		TxnID:     tx.id,
		PageID:    wal.NoPage,
		WallClock: tx.db.opts.Clock.Now().UnixNano(),
	}
	lsn, err := tx.db.log.Append(&tx.ctlRec)
	if err != nil {
		return err
	}
	tx.beginLSN.Store(uint64(lsn))
	tx.lastLSN.Store(uint64(lsn))
	tx.begun.Store(true)
	return nil
}

// logApply assigns chain fields, appends the record, applies it to the
// latched page, and maintains the image-every-N cadence (§6.1). This is the
// single choke point through which every page modification flows.
func (tx *Txn) logApply(bh *buffer.Handle, rec *wal.Record) error {
	if txnState(tx.state.Load()) != txnActive {
		return errors.New("engine: transaction is not active")
	}
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	p := bh.Page()
	rec.TxnID = tx.id
	rec.PrevLSN = wal.LSN(tx.lastLSN.Load())
	rec.PrevPageLSN = wal.LSN(p.PageLSN())
	if tx.ntaDepth > 0 {
		rec.Flags |= wal.FlagNTA
	}
	if tx.rollingBack && rec.Type != wal.TypeCLR {
		rec.CLRType = rec.Type
		rec.Type = wal.TypeCLR
		rec.UndoNextLSN = tx.undoNext
	}
	lsn, err := tx.db.log.Append(rec)
	if err != nil {
		return err
	}
	if err := wal.Redo(p, rec); err != nil {
		return err
	}
	p.BumpModCount()
	bh.MarkDirty()
	tx.lastLSN.Store(uint64(lsn))
	tx.maybeLogImage(bh, rec.ObjectID)
	return nil
}

// maybeLogImage emits a full page image record every Nth modification,
// chaining it to the page's previous image via PrevImageLSN so undo can
// skip log regions (§6.1).
func (tx *Txn) maybeLogImage(bh *buffer.Handle, objectID uint32) {
	n := tx.db.opts.PageImageEvery
	if n <= 0 {
		return
	}
	p := bh.Page()
	if p.ModCount()%uint32(n) != 0 {
		return
	}
	// NewData aliases the live page: Append copies it into the log tail
	// before returning, and the page is exclusively latched until then.
	img := &wal.Record{
		Type:         wal.TypeImage,
		PageID:       uint32(p.ID()),
		ObjectID:     objectID,
		PrevPageLSN:  wal.LSN(p.PageLSN()),
		PrevImageLSN: wal.LSN(p.LastImageLSN()),
		NewData:      p.Bytes(),
	}
	lsn, err := tx.db.log.Append(img)
	if err != nil {
		return // image records are an optimization; losing one is harmless
	}
	p.SetLastImageLSN(uint64(lsn))
	p.SetPageLSN(uint64(lsn))
}

// --- btree.Store implementation ---

// Fetch returns a latched page handle from the buffer pool.
func (tx *Txn) Fetch(id page.ID, excl bool) (btree.Handle, error) {
	h, err := tx.db.pool.Fetch(id, excl)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Alloc allocates a page: it finds a free slot in the allocation map, logs
// the bit change, and formats the page. Re-allocations of previously used
// pages first log a preformat record carrying the prior page image (§4.2
// extension 1, paper Figure 2); first allocations skip it — "a data page
// does not contain useful information if it has never been allocated".
func (tx *Txn) Alloc(objectID uint32, t page.Type, level uint8) (btree.Handle, error) {
	db := tx.db
	db.allocMu.Lock()
	defer db.allocMu.Unlock()

	for interval := uint32(0); ; interval++ {
		mapID := alloc.FirstMapPage
		if interval > 0 {
			mapID = page.ID(interval * alloc.PagesPerMap)
		}
		mh, err := tx.fetchOrCreateMapPage(mapID)
		if err != nil {
			return nil, err
		}
		id, ok := alloc.FindFree(mh.Page(), db.allocHint[interval], alloc.PagesPerMap)
		if !ok {
			mh.Release()
			db.allocHint[interval] = alloc.PagesPerMap
			continue
		}
		_, ever, err := alloc.ReadState(mh.Page(), id)
		if err != nil {
			mh.Release()
			return nil, err
		}
		mut, err := alloc.SetState(mh.Page(), id, true, true)
		if err != nil {
			mh.Release()
			return nil, err
		}
		err = tx.logApply(mh, &wal.Record{
			Type: wal.TypeAllocBits, PageID: uint32(mapID), ObjectID: objectID,
			Slot: mut.ByteIdx, OldData: []byte{mut.OldVal}, NewData: []byte{mut.NewVal},
		})
		mh.Release()
		if err != nil {
			return nil, err
		}
		db.allocHint[interval] = uint32(id)%alloc.PagesPerMap + 1

		return tx.formatAllocated(objectID, id, t, level, ever)
	}
}

// fetchOrCreateMapPage returns the exclusively latched allocation map page,
// creating and formatting it if the file has not grown that far yet.
func (tx *Txn) fetchOrCreateMapPage(mapID page.ID) (*buffer.Handle, error) {
	h, err := tx.db.pool.Fetch(mapID, true)
	if err == nil {
		if h.Page().Type() != page.TypeAllocMap {
			// Zero page read from a grown file: format it in place.
			h.Page().Format(mapID, page.TypeAllocMap, 0)
			h.MarkDirty()
		}
		return h, nil
	}
	if !errors.Is(err, disk.ErrPastEOF) {
		return nil, err
	}
	h, err = tx.db.pool.NewPage(mapID)
	if err != nil {
		return nil, err
	}
	h.Page().Format(mapID, page.TypeAllocMap, 0)
	h.MarkDirty()
	return h, nil
}

func (tx *Txn) formatAllocated(objectID uint32, id page.ID, t page.Type, level uint8, ever bool) (btree.Handle, error) {
	db := tx.db
	var h *buffer.Handle
	var err error
	if ever {
		// Re-allocation: the prior content (the previous incarnation's
		// chain tail) is still reachable — in the pool if it was never
		// flushed, on disk otherwise. Preserve it with a preformat record.
		h, err = db.pool.Fetch(id, true)
		if errors.Is(err, disk.ErrPastEOF) {
			// Only possible when the prior incarnation's records were
			// themselves truncated by retention; the chain legitimately
			// starts fresh here.
			h, err = db.pool.NewPage(id)
			ever = false
		}
		if err != nil {
			return nil, err
		}
		if ever {
			if err := tx.logApply(h, &wal.Record{
				Type: wal.TypePreformat, PageID: uint32(id), ObjectID: objectID,
				OldData: append([]byte(nil), h.Page().Bytes()...),
			}); err != nil {
				h.Release()
				return nil, err
			}
		}
	} else {
		h, err = db.pool.NewPage(id)
		if err != nil {
			return nil, err
		}
	}
	if err := tx.logApply(h, &wal.Record{
		Type: wal.TypeFormat, PageID: uint32(id), ObjectID: objectID,
		Extra: []byte{byte(t), level},
	}); err != nil {
		h.Release()
		return nil, err
	}
	return h, nil
}

// Free deallocates a page. Only the allocation bit changes — the page
// content is preserved so as-of queries into the past can still unwind it,
// and the preformat record at the next re-allocation bridges the chains.
func (tx *Txn) Free(objectID uint32, id page.ID) error {
	db := tx.db
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	mapID := alloc.MapPageFor(id)
	mh, err := db.pool.Fetch(mapID, true)
	if err != nil {
		return err
	}
	defer mh.Release()
	mut, err := alloc.SetState(mh.Page(), id, false, true)
	if err != nil {
		return err
	}
	if err := tx.logApply(mh, &wal.Record{
		Type: wal.TypeAllocBits, PageID: uint32(mapID), ObjectID: objectID,
		Slot: mut.ByteIdx, OldData: []byte{mut.OldVal}, NewData: []byte{mut.NewVal},
	}); err != nil {
		return err
	}
	interval := uint32(id) / alloc.PagesPerMap
	if rel := uint32(id) % alloc.PagesPerMap; rel < db.allocHint[interval] {
		db.allocHint[interval] = rel
	}
	return nil
}

// The slot-operation loggers below reuse tx.rec and alias the caller's and
// the page's bytes instead of copying: Append frames the record into the
// log tail synchronously, and the page is exclusively latched until
// logApply's Redo runs, so no copy can be observed stale. This halves the
// allocations of the logging hot path (verified with -benchmem).

// InsertRec logs and applies a slot insert.
func (tx *Txn) InsertRec(h btree.Handle, objectID uint32, slot int, rec []byte) error {
	bh := h.(*buffer.Handle)
	tx.rec = wal.Record{
		Type: wal.TypeInsert, PageID: uint32(bh.Page().ID()), ObjectID: objectID,
		Slot: uint16(slot), NewData: rec,
	}
	return tx.logApply(bh, &tx.rec)
}

// DeleteRec logs and applies a slot delete. The deleted row image always
// rides in OldData — for SMO-generated deletes this is §4.2 extension 3.
func (tx *Txn) DeleteRec(h btree.Handle, objectID uint32, slot int) error {
	bh := h.(*buffer.Handle)
	old, err := bh.Page().Get(slot)
	if err != nil {
		return err
	}
	tx.rec = wal.Record{
		Type: wal.TypeDelete, PageID: uint32(bh.Page().ID()), ObjectID: objectID,
		Slot: uint16(slot), OldData: old,
	}
	return tx.logApply(bh, &tx.rec)
}

// UpdateRec logs and applies a slot update as the bytes that differ between
// the slot's record and rec.
func (tx *Txn) UpdateRec(h btree.Handle, objectID uint32, slot int, rec []byte) error {
	bh := h.(*buffer.Handle)
	old, err := bh.Page().Get(slot)
	if err != nil {
		return err
	}
	tx.rec = wal.Record{
		Type: wal.TypeUpdate, PageID: uint32(bh.Page().ID()), ObjectID: objectID,
		Slot: uint16(slot),
	}
	tx.extra = tx.rec.SetUpdate(old, rec, tx.extra)
	return tx.logApply(bh, &tx.rec)
}

// Reformat formats a live page in place (root splits), preserving the prior
// image via a preformat record.
func (tx *Txn) Reformat(h btree.Handle, objectID uint32, t page.Type, level uint8) error {
	bh := h.(*buffer.Handle)
	if err := tx.logApply(bh, &wal.Record{
		Type: wal.TypePreformat, PageID: uint32(bh.Page().ID()), ObjectID: objectID,
		OldData: append([]byte(nil), bh.Page().Bytes()...),
	}); err != nil {
		return err
	}
	return tx.logApply(bh, &wal.Record{
		Type: wal.TypeFormat, PageID: uint32(bh.Page().ID()), ObjectID: objectID,
		Extra: []byte{byte(t), level},
	})
}

// BeginNTA/EndNTA bracket structure modifications as nested top actions:
// the dummy CLR logged at EndNTA makes rollback skip the SMO records, the
// equivalent of SQL Server's system transactions for SMOs.
func (tx *Txn) BeginNTA() uint64 {
	tx.ntaDepth++
	return tx.lastLSN.Load()
}

func (tx *Txn) EndNTA(token uint64) {
	if tx.ntaDepth > 0 {
		tx.ntaDepth--
	}
	if tx.rollingBack || !tx.begun.Load() {
		return
	}
	rec := &wal.Record{
		Type:        wal.TypeCLR,
		TxnID:       tx.id,
		PrevLSN:     wal.LSN(tx.lastLSN.Load()),
		PageID:      wal.NoPage,
		UndoNextLSN: wal.LSN(token),
	}
	if lsn, err := tx.db.log.Append(rec); err == nil {
		tx.lastLSN.Store(uint64(lsn))
	}
}

// CountSplit and CountLeafFree implement btree.SMOCounter: the tree reports
// each structure modification it completes on the primary.
func (tx *Txn) CountSplit(point bool) {
	if point {
		tx.db.metrics.splitsPoint.Inc()
	} else {
		tx.db.metrics.splitsMid.Inc()
	}
}

func (tx *Txn) CountLeafFree() { tx.db.metrics.leafFrees.Inc() }

// TreeLock returns the tree-level lock shared across transactions.
func (tx *Txn) TreeLock(root page.ID) *sync.RWMutex { return tx.db.treeLock(root) }

// --- commit / rollback ---

// Commit makes the transaction durable: its commit record (carrying the
// wall-clock time the SplitLSN search needs, §5.1) is durable on disk
// before Commit returns and locks are released — via the group-commit
// pipeline (append, then Flush rides or leads a batched log force).
func (tx *Txn) Commit() error {
	if txnState(tx.state.Load()) != txnActive {
		return errors.New("engine: commit of inactive transaction")
	}
	sp := obs.StartSpan(tx.db.opts.Clock, tx.db.metrics.commitSeconds)
	if tx.begun.Load() {
		tx.ctlRec = wal.Record{
			Type:      wal.TypeCommit,
			TxnID:     tx.id,
			PrevLSN:   wal.LSN(tx.lastLSN.Load()),
			PageID:    wal.NoPage,
			WallClock: tx.db.opts.Clock.Now().UnixNano(),
		}
		if err := tx.endDurable(&tx.ctlRec); err != nil {
			return err
		}
		tx.commitLSN = tx.ctlRec.LSN
	}
	tx.state.Store(int32(txnCommitted))
	tx.finish()
	sp.End()
	tx.db.maybeATTMark()
	tx.db.maybeAutoCheckpoint()
	return nil
}

// endDurable appends a transaction-terminating record and blocks until it
// is durable. The append (but not the durability wait) happens under the
// commitGate so concurrent checkpoints never capture this transaction as
// active once its end record has an LSN.
func (tx *Txn) endDurable(rec *wal.Record) error {
	db := tx.db
	db.commitGate.RLock()
	lsn, err := db.log.Append(rec)
	if err == nil {
		tx.endAppended.Store(true)
	}
	db.commitGate.RUnlock()
	if err != nil {
		return err
	}
	return db.log.Flush(lsn)
}

// Rollback undoes the transaction: its log chain is walked backwards and
// each operation is logically undone (rows re-located by key, since they
// may have moved through splits), generating CLRs that themselves carry
// undo information so as-of queries can rewind across the rollback.
func (tx *Txn) Rollback() error {
	if txnState(tx.state.Load()) != txnActive {
		return errors.New("engine: rollback of inactive transaction")
	}
	sp := obs.StartSpan(tx.db.opts.Clock, tx.db.metrics.abortSeconds)
	var err error
	if tx.begun.Load() {
		err = tx.undoChain(wal.LSN(tx.lastLSN.Load()))
		abort := &wal.Record{
			Type:    wal.TypeAbort,
			TxnID:   tx.id,
			PrevLSN: wal.LSN(tx.lastLSN.Load()),
			PageID:  wal.NoPage,
		}
		if aerr := tx.endDurable(abort); aerr != nil && err == nil {
			err = aerr
		}
	}
	tx.state.Store(int32(txnAborted))
	tx.finish()
	sp.End()
	return err
}

func (tx *Txn) finish() {
	if tx.didDDL {
		tx.db.invalidateIndexCache()
	}
	tx.db.locks.ReleaseAll(tx.id)
	tx.db.unregisterTxn(tx.id)
	tx.db.metrics.activeTxns.Add(-1)
}

// undoChain performs logical undo from the given LSN back to the Begin
// record, logging a CLR per compensation. It is shared by runtime rollback
// and crash-recovery undo (§5.2's snapshot recovery and a restore use the
// unlogged UnloggedStore.UndoTxn over the same walk).
func (tx *Txn) undoChain(from wal.LSN) error {
	tx.rollingBack = true
	defer func() { tx.rollingBack = false }()
	// A chain reader pins the log's partial last block, where most of these
	// records lie; Manager.Read would fetch it again for every one of them.
	rdr := tx.db.log.ChainReader()
	defer rdr.Close()
	_, err := wal.WalkTxnChain(rdr.Read, from, func(rec *wal.Record) error {
		if rec.Type == wal.TypeCLR {
			return nil
		}
		tx.undoNext = rec.PrevLSN
		if rec.Flags&wal.FlagNTA != 0 {
			// The chain was cut inside a structure modification: compensate
			// this record physically (the page's tail is exactly this
			// record — the SMO held its latches, so no later records
			// intervene on the page).
			if err := tx.undoPhysical(rec); err != nil {
				return fmt.Errorf("engine: physical undo at %v: %w", rec.LSN, err)
			}
			return nil
		}
		switch rec.Type {
		case wal.TypeInsert, wal.TypeDelete, wal.TypeUpdate:
			if err := UndoRowOp(tx, rec); err != nil {
				return fmt.Errorf("engine: undo %v at %v: %w", rec.Type, rec.LSN, err)
			}
		case wal.TypeAllocBits:
			if err := tx.undoAllocBits(rec); err != nil {
				return fmt.Errorf("engine: undo allocbits at %v: %w", rec.LSN, err)
			}
		}
		// Page lifecycle records (format, preformat, image) are undone
		// implicitly by the AllocBits undo that deallocates the page; content
		// is irrelevant once the page is free again.
		return nil
	})
	return err
}

// undoPhysical compensates one mid-NTA record with a physical CLR: the
// inverse operation at the recorded slot, logged so redo repeats it.
func (tx *Txn) undoPhysical(rec *wal.Record) error {
	if rec.Type == wal.TypeAllocBits {
		return tx.undoAllocBits(rec)
	}
	clr, err := rec.Compensation()
	if err != nil || clr == nil {
		return err
	}
	h, err := tx.db.pool.Fetch(page.ID(rec.PageID), true)
	if err != nil {
		return err
	}
	defer h.Release()
	clr.UndoNextLSN = tx.undoNext
	return tx.logApply(h, clr)
}

// undoAllocBits physically compensates an allocation bitmap change.
func (tx *Txn) undoAllocBits(rec *wal.Record) error {
	db := tx.db
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	mh, err := db.pool.Fetch(page.ID(rec.PageID), true)
	if err != nil {
		return err
	}
	defer mh.Release()
	clr := &wal.Record{
		Type: wal.TypeAllocBits, PageID: rec.PageID, ObjectID: rec.ObjectID,
		Slot: rec.Slot, OldData: append([]byte(nil), rec.NewData...),
		NewData: append([]byte(nil), rec.OldData...),
	}
	if err := tx.logApply(mh, clr); err != nil {
		return err
	}
	// Re-opened page slots may be reusable again.
	interval := rec.PageID / alloc.PagesPerMap
	if uint32(rec.Slot)*4 < db.allocHint[interval] {
		db.allocHint[interval] = uint32(rec.Slot) * 4
	}
	return nil
}
