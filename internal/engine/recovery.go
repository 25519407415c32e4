package engine

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/storage/buffer"
	"repro/internal/storage/disk"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// recover runs ARIES crash recovery (§2, §5.2):
//
//   - analysis: from the last checkpoint's begin record, rebuild the active
//     transaction table (seeded from the checkpoint-end record's ATT);
//   - redo: from the checkpoint's redo start, replay every page operation
//     whose effects are not yet on the page (dirty-page table below the
//     begin record, pageLSN test everywhere), repeating history. Only a
//     page a record changes is dirtied: one redo reads and finds current
//     stays clean, so neither redo's evictions nor the closing checkpoint
//     write it back;
//   - undo: logically roll back every transaction that was in flight,
//     generating CLRs, exactly as a runtime rollback would.
//
// The same passes, re-targeted at a SplitLSN instead of the end of log,
// implement as-of snapshot recovery in the asof package and point-in-time
// restore in the backup package — and, run as a standing loop fed by shipped
// log instead of a bounded scan, continuous replica redo in internal/repl.
// Each pass is written once, here, and every one of them calls it:
//
//   - analysis: RecoveryState (Seed with a checkpoint's or mark's ATT, then
//     Observe each record in LSN order);
//   - redo: BatchRedo, a batch of records into any buffer pool — the
//     engine's (DB.RedoBatch) or a restored copy's — with its pages read
//     ahead in runs, each record applied by RedoInto;
//   - undo: a backward walk of each in-flight transaction's chain
//     (wal.WalkTxnChain), logged with CLRs on the engine (UndoTransactions)
//     or unlogged on a private copy (UnloggedStore.UndoTxn); both undo a row
//     operation with UndoRowOp.
//
// recover composes them over one log scan.
func (db *DB) recover() error {
	begin, start := wal.LSN(1), wal.LSN(1)
	var dpt map[uint32]wal.LSN
	prevBegin := flushAll
	st := NewRecoveryState()
	db.mu.Lock()
	ckptEnd := db.boot.lastCkptEnd
	db.mu.Unlock()
	if ckptEnd != wal.NilLSN {
		rec, err := db.log.Read(ckptEnd)
		if err != nil {
			return fmt.Errorf("read checkpoint end %v: %w", ckptEnd, err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return err
		}
		begin, start, prevBegin = data.BeginLSN, data.RedoStart(), data.BeginLSN
		dpt = make(map[uint32]wal.LSN, len(data.DPT))
		for _, e := range data.DPT {
			dpt[e.PageID] = e.RecLSN
		}
		st.Seed(data.ATT)
	}

	// Analysis + redo in one forward pass. The checkpoint wrote back only
	// pages that stayed dirty through a whole interval; the rest it listed
	// in its dirty-page table, so below the begin record a change can be
	// missing only from a listed page, at or after its recLSN. Any other
	// record there is skipped without reading its page (redone says which
	// records redo applies). Analysis starts at the begin record, where the
	// ATT was seeded. Each stretch the scan decodes is one RedoBatch.
	redone := func(rec *wal.Record) bool {
		if rec.LSN >= begin {
			return true
		}
		recLSN, ok := dpt[rec.PageID]
		return ok && rec.LSN >= recLSN
	}
	// The scan stops at the end of the last intact record: a crash can tear
	// the final record mid-write, and the log must be rewound to that CRC
	// boundary before recovery appends anything — otherwise the torn bytes
	// would sit as an unreadable hole in front of every later record.
	// Nothing else uses the pool yet, so its counters split redo's page
	// misses exactly into pages read and pages rebuilt without a read, and
	// count the pages redo's evictions wrote back.
	//
	// Analysis also rebuilds what the running system derived from the same
	// records (ObserveRecord): the time→LSN samples, the checkpoints the
	// boot record did not name yet, and an analysis mark every attMarkEvery
	// — from the checkpoint-end record on, where the seeded state is exact.
	pool0 := db.pool.Stats()
	end, err := db.log.ScanBatches(start, func(recs []*wal.Record) (bool, error) {
		for _, rec := range recs {
			if rec.LSN >= begin {
				db.ObserveRecord(st, rec)
			}
		}
		if err := db.RedoBatch(recs, redone); err != nil {
			return false, err
		}
		if last := recs[len(recs)-1]; last.LSN >= ckptEnd {
			db.NoteAnalysisMark(last.LSN+wal.LSN(last.ApproxSize())-1, st)
		}
		return true, nil
	})
	if err != nil {
		return fmt.Errorf("redo pass: %w", err)
	}
	pool1 := db.pool.Stats()
	db.metrics.recoveryPagesRead.Add(pool1.Reads - pool0.Reads)
	db.metrics.recoveryPagesRebuilt.Add(pool1.Zeroed - pool0.Zeroed)
	db.metrics.recoveryReadIOs.Add(pool1.ReadIOs - pool0.ReadIOs)
	db.metrics.recoveryPagesWritten.Add(pool1.EvictWritebacks - pool0.EvictWritebacks)
	if end < wal.LSN(db.log.Size()) {
		if err := db.log.Rewind(end); err != nil {
			return fmt.Errorf("torn-tail rewind to %v: %w", end, err)
		}
	}
	db.nextTxnID.Store(st.MaxTxn + 1)

	// Undo pass: roll back in-flight transactions with the runtime logical
	// undo machinery.
	if err := db.UndoTransactions(st.Inflight()); err != nil {
		return err
	}

	// Leave a starting point for the next crash, bounded like a periodic
	// checkpoint: pages redone from below the recovered-from checkpoint's
	// begin are written back, the rest go into the dirty-page table.
	return db.checkpoint(prevBegin)
}

// RedoBatch is BatchRedo.Redo into the engine's pool, with its pass state on
// db: a database runs either crash recovery at Open or a standby's catch-up,
// never both, and each calls RedoBatch from one goroutine at a time.
func (db *DB) RedoBatch(recs []*wal.Record, redone func(*wal.Record) bool) error {
	return db.redo.Redo(db.pool, db.data.PageCount(), recs, redone)
}

// BatchRedo is the one batch redo, of crash recovery, a standby's catch-up
// and a backup restore, with its pass state: a bit per page named so far,
// and the read-ahead list it reuses. The zero value starts a pass.
type BatchRedo struct {
	seen  []uint64
	ahead []page.ID
}

// Redo reads the pages redo of recs will read ahead into pool's
// still-untouched frames, one device read per run of consecutive page ids
// (buffer.Pool.Prefetch, which never evicts, so this only happens while the
// pool is filling), then applies the records redone admits (nil admits all)
// with RedoInto, serially in log order. pages is the length of pool's file.
func (b *BatchRedo) Redo(pool *buffer.Pool, pages uint32, recs []*wal.Record, redone func(*wal.Record) bool) error {
	pool.Prefetch(b.reads(recs, redone, pages))
	for _, rec := range recs {
		if redone != nil && !redone(rec) {
			continue
		}
		if err := RedoInto(pool, rec); err != nil {
			return err
		}
	}
	return nil
}

// reads lists the pages redo of recs reads that no earlier record of the
// pass named: the pages, below pages, of records redo applies, unless the
// first such record rebuilds the page. b.seen marks the pages named so far, so a
// later record of a page costs one bit test: that page is resident, or was
// evicted once the pool had no untouched frame left to read it into.
func (b *BatchRedo) reads(recs []*wal.Record, redone func(*wal.Record) bool, pages uint32) []page.ID {
	if n := int(pages+63) / 64; len(b.seen) < n {
		b.seen = append(b.seen, make([]uint64, n-len(b.seen))...)
	}
	bits, ids := b.seen, b.ahead[:0]
	for _, rec := range recs {
		if !rec.IsPageOp() || rec.PageID == wal.NoPage || rec.PageID >= pages || (redone != nil && !redone(rec)) {
			continue
		}
		w, bit := rec.PageID/64, uint64(1)<<(rec.PageID%64)
		if bits[w]&bit != 0 {
			continue
		}
		bits[w] |= bit
		if !rec.RebuildsPage() {
			ids = append(ids, page.ID(rec.PageID))
		}
	}
	b.ahead = ids
	return ids
}

// RecoveryState is the incremental §5.2 analysis state: the table of
// transactions in flight as of the last record observed, plus the highest
// transaction id seen. Crash recovery folds one bounded log scan into it;
// a replica's standing apply loop folds the shipped stream into it
// continuously, so the ATT at the replica's applied LSN is always exact —
// no analysis scan is ever needed to mount a snapshot or promote.
type RecoveryState struct {
	ATT    map[uint64]*wal.ATTEntry
	MaxTxn uint64
}

// NewRecoveryState returns an empty analysis state.
func NewRecoveryState() *RecoveryState {
	return &RecoveryState{ATT: make(map[uint64]*wal.ATTEntry)}
}

// Seed installs a checkpoint's (or replica checkpoint's) ATT capture.
func (st *RecoveryState) Seed(att []wal.ATTEntry) {
	for i := range att {
		e := att[i]
		if e.TxnID > st.MaxTxn {
			st.MaxTxn = e.TxnID
		}
		st.ATT[e.TxnID] = &e
	}
}

// Observe folds one record, in LSN order, into the analysis state.
func (st *RecoveryState) Observe(rec *wal.Record) {
	if rec.TxnID > st.MaxTxn {
		st.MaxTxn = rec.TxnID
	}
	switch rec.Type {
	case wal.TypeBegin:
		st.ATT[rec.TxnID] = &wal.ATTEntry{TxnID: rec.TxnID, LastLSN: rec.LSN, BeginLSN: rec.LSN}
	case wal.TypeCommit, wal.TypeAbort:
		delete(st.ATT, rec.TxnID)
	case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
		// bookkeeping only
	default:
		if rec.TxnID != 0 {
			if e, ok := st.ATT[rec.TxnID]; ok {
				e.LastLSN = rec.LSN
			} else {
				st.ATT[rec.TxnID] = &wal.ATTEntry{TxnID: rec.TxnID, LastLSN: rec.LSN}
			}
		}
	}
}

// ObserveRecord folds one record, read in log order, into st and into what
// the running system derived from the log as it appended it: the sparse
// time→LSN index, at the cadence Append samples commits, and the checkpoint
// index. Crash recovery's scan and a standby's apply pass every record
// through it, so a recovered database and a standby resolve times with the
// indexes the primary built. For a checkpoint-end record it returns the
// decoded payload; for any other record, or one that does not decode, nil.
func (db *DB) ObserveRecord(st *RecoveryState, rec *wal.Record) *wal.CheckpointData {
	st.Observe(rec)
	switch rec.Type {
	case wal.TypeCommit:
		db.log.ObserveCommit(rec.WallClock, rec.LSN)
	case wal.TypeCheckpointEnd:
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return nil
		}
		db.mu.Lock()
		db.noteCheckpointLocked(CkptMark{WallClock: rec.WallClock, Begin: data.BeginLSN, End: rec.LSN})
		db.mu.Unlock()
		return &data
	}
	return nil
}

// Inflight returns the in-flight transactions as ATT entries.
func (st *RecoveryState) Inflight() []wal.ATTEntry {
	out := make([]wal.ATTEntry, 0, len(st.ATT))
	for _, e := range st.ATT {
		out = append(out, *e)
	}
	return out
}

// ErrPageMissing is returned by redo when a record that needs its page's
// bytes finds the page past the end of the data file: the file has lost a
// page the log says was written.
var ErrPageMissing = errors.New("engine: redo needs a page the data file does not hold")

// RedoInto applies one record's page effects to its page in pool if the page
// has not seen them (the pageLSN test makes it idempotent); non-page records
// are ignored. It is the one redo: crash recovery, standby apply and backup
// restore all replay through it in BatchRedo, one record at a time, in log
// order.
//
// It dirties the page only when the record changes it. A page whose pageLSN
// is at or past the record's LSN already holds it: redo leaves the frame as
// it found it, and a clean frame stays clean, since writing it back would
// only rewrite the bytes the data file holds. A frame rebuilt from zero has
// pageLSN 0, so every record on it applies and dirties it.
//
// A record that rebuilds the whole page (wal.Record.RebuildsPage) never reads
// it: a resident frame is used as it is, a missing one is zeroed.
func RedoInto(pool *buffer.Pool, rec *wal.Record) error {
	if !rec.IsPageOp() || rec.PageID == wal.NoPage {
		return nil
	}
	id := page.ID(rec.PageID)
	var h *buffer.Handle
	var err error
	if rec.RebuildsPage() {
		h, err = pool.NewPage(id)
	} else if h, err = pool.Fetch(id, true); errors.Is(err, disk.ErrPastEOF) {
		if rec.Type != wal.TypeAllocBits || !alloc.IsMapPage(id) {
			return fmt.Errorf("%w: page %d, needed by %v at %v", ErrPageMissing, rec.PageID, rec.Type, rec.LSN)
		}
		// An allocation map page that never reached the file; it is
		// formatted below.
		h, err = pool.NewPage(id)
	}
	if err != nil {
		return fmt.Errorf("redo %v at %v on page %d: %w", rec.Type, rec.LSN, rec.PageID, err)
	}
	defer h.Release()
	p := h.Page()
	if rec.Type == wal.TypeAllocBits && p.Type() != page.TypeAllocMap && p.PageLSN() == 0 {
		// Allocation map pages are formatted directly (unlogged) when the
		// engine creates them; a page rebuilt from scratch by redo — a
		// replica starting from an empty directory, or a map page that
		// never reached disk before a crash — sees its first AllocBits
		// record on a fresh zero frame and must take the format here.
		p.Format(id, page.TypeAllocMap, 0)
	}
	if wal.LSN(p.PageLSN()) >= rec.LSN {
		return nil
	}
	if err := wal.Redo(p, rec); err != nil {
		return err
	}
	h.MarkDirty()
	return nil
}

// UndoTransactions rolls back the given in-flight transactions with the
// runtime logical undo machinery, appending CLRs and a terminating abort
// record per transaction — the shared undo pass of crash recovery and
// standby promotion.
func (db *DB) UndoTransactions(att []wal.ATTEntry) error {
	for _, e := range att {
		tx := &Txn{db: db, id: e.TxnID}
		tx.begun.Store(true)
		tx.beginLSN.Store(uint64(e.BeginLSN))
		tx.lastLSN.Store(uint64(e.LastLSN))
		db.registerTxn(tx)
		if err := tx.undoChain(e.LastLSN); err != nil {
			return fmt.Errorf("undo txn %d: %w", e.TxnID, err)
		}
		abort := &wal.Record{Type: wal.TypeAbort, TxnID: tx.id, PrevLSN: wal.LSN(tx.lastLSN.Load()), PageID: wal.NoPage}
		if _, err := db.log.AppendFlush(abort); err != nil {
			return err
		}
		tx.state.Store(int32(txnAborted))
		db.unregisterTxn(tx.id)
	}
	return nil
}
