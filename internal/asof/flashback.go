package asof

// Transaction-level undo — the extension the paper names as future work in
// §8: "We are working on extending our scheme to undo a specific
// transaction."
//
// The same per-transaction log chains that drive rollback make this
// possible for committed transactions: walk the chain, and apply the
// inverse of each row operation as a new, ordinary transaction (a
// compensating transaction), under normal locking. Unlike page rewinding,
// later committed work is preserved — which also means the undo can
// conflict with it; conflicts are detected by comparing the row's current
// value with the transaction's after-image and reported unless the caller
// forces the undo.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// CommitInfo describes one committed transaction found in the log.
type CommitInfo struct {
	TxnID     uint64
	CommitLSN wal.LSN
	BeginLSN  wal.LSN
	At        time.Time
	// Ops counts the row operations (inserts/deletes/updates) logged by
	// the transaction, excluding structure modifications.
	Ops int
}

// FindCommits scans the log for transactions committed in [from, to],
// oldest first. It is the discovery step before UndoTransaction: "what
// changed around the time of the mistake?"
//
// The scan starts at the newest time→LSN sample at or before from (when
// the sparse index covers it) instead of the head of the log. A committing
// transaction may have begun before that window; its begin LSN and
// operation count are backfilled exactly by walking its PrevLSN chain
// through a ChainReader.
func FindCommits(db *engine.DB, from, to time.Time) ([]CommitInfo, error) {
	fromNS, toNS := from.UnixNano(), to.UnixNano()
	start := db.Log().TruncationPoint()
	// One sample of slack: commit wall-clocks can invert slightly around
	// the window boundary, and unlike ResolveTime this API must not miss a
	// qualifying commit whose wall-clock inverted with the floor sample's.
	if s, ok := db.Log().TimeFloorBack(fromNS, 1); ok && s.LSN > start {
		start = s.LSN
	}
	type txState struct {
		begin wal.LSN
		ops   int
	}
	var rdr *wal.ChainReader
	defer func() {
		if rdr != nil {
			rdr.Close()
		}
	}()
	open := make(map[uint64]*txState)
	var out []CommitInfo
	err := db.Log().Scan(start, func(rec *wal.Record) (bool, error) {
		switch rec.Type {
		case wal.TypeBegin:
			open[rec.TxnID] = &txState{begin: rec.LSN}
		case wal.TypeInsert, wal.TypeDelete, wal.TypeUpdate:
			if st := open[rec.TxnID]; st != nil {
				st.ops++
			}
		case wal.TypeAbort:
			delete(open, rec.TxnID)
		case wal.TypeCommit:
			st := open[rec.TxnID]
			delete(open, rec.TxnID)
			if rec.WallClock < fromNS || rec.WallClock > toNS {
				return rec.WallClock <= toNS, nil
			}
			info := CommitInfo{
				TxnID:     rec.TxnID,
				CommitLSN: rec.LSN,
				At:        rec.Time(),
			}
			if st != nil {
				info.BeginLSN = st.begin
				info.Ops = st.ops
			} else {
				// Began before the scan window: reconstruct begin/ops from
				// the transaction's own backward chain.
				if rdr == nil {
					rdr = db.Log().ChainReader()
				}
				begin, ops, err := txnChainInfo(rdr, rec.PrevLSN)
				if err != nil {
					// A chain reaching below the retention boundary keeps
					// zero begin/ops, matching the full scan's accounting
					// for transactions cut by truncation.
					if !errors.Is(err, wal.ErrTruncated) {
						return false, err
					}
				} else {
					info.BeginLSN = begin
					info.Ops = ops
				}
			}
			out = append(out, info)
		}
		return true, nil
	})
	return out, err
}

// txnChainInfo walks a transaction's PrevLSN chain backwards from its last
// record, returning its begin LSN and row-operation count (CLR-compensated
// regions skipped via UndoNextLSN, matching the forward scan's accounting).
func txnChainInfo(rdr *wal.ChainReader, last wal.LSN) (wal.LSN, int, error) {
	ops := 0
	begin, err := wal.WalkTxnChain(rdr.Read, last, func(rec *wal.Record) error {
		switch rec.Type {
		case wal.TypeInsert, wal.TypeDelete, wal.TypeUpdate:
			ops++
		}
		return nil
	})
	if err != nil {
		return wal.NilLSN, 0, fmt.Errorf("asof: commit chain: %w", err)
	}
	return begin, ops, nil
}

// ErrUndoConflict is returned when a row touched by the transaction being
// undone has since been changed by someone else. Pass force to override.
var ErrUndoConflict = errors.New("asof: row changed since the transaction; refusing to undo")

// ErrNotCommitted is returned when the LSN does not name a commit record.
var ErrNotCommitted = errors.New("asof: LSN is not a commit record")

// UndoReport summarizes a transaction undo.
type UndoReport struct {
	TxnID uint64
	// InsertsRemoved, DeletesRestored and UpdatesReverted count the
	// compensating operations applied.
	InsertsRemoved  int
	DeletesRestored int
	UpdatesReverted int
	// CompensatingTxn is the id of the new transaction that performed the
	// undo (it is a normal transaction: logged, durable, undoable).
	CompensatingTxn uint64
}

// UndoTransaction reverses a committed transaction identified by its
// commit LSN (from FindCommits): its row operations are inverted, newest
// first, inside a new compensating transaction that takes ordinary locks
// and commits durably. Work committed by other transactions afterwards is
// preserved; if any of it touched the same rows, the undo fails with
// ErrUndoConflict unless force is set.
func UndoTransaction(db *engine.DB, commitLSN wal.LSN, force bool) (UndoReport, error) {
	commit, err := db.Log().Read(commitLSN)
	if err != nil {
		return UndoReport{}, err
	}
	if commit.Type != wal.TypeCommit {
		return UndoReport{}, fmt.Errorf("%w: %v is %v", ErrNotCommitted, commitLSN, commit.Type)
	}
	report := UndoReport{TxnID: commit.TxnID}

	tx, err := db.Begin()
	if err != nil {
		return report, err
	}
	report.CompensatingTxn = tx.ID()
	tables, err := rootTableIndex(tx)
	if err != nil {
		tx.Rollback()
		return report, err
	}

	// The compensating walk is a per-transaction backward chain: stream it
	// through a ChainReader. Each record is fully consumed (rows decoded
	// and applied) before the next hop, so the reusable scratch record is
	// safe here.
	rdr := db.Log().ChainReader()
	defer rdr.Close()
	_, err = wal.WalkTxnChain(rdr.Read, commit.PrevLSN, func(rec *wal.Record) error {
		var err error
		switch rec.Type {
		case wal.TypeInsert:
			if err = undoOneInsert(tx, tables, rec, force); err == nil {
				report.InsertsRemoved++
			}
		case wal.TypeDelete:
			if err = undoOneDelete(tx, tables, rec); err == nil {
				report.DeletesRestored++
			}
		case wal.TypeUpdate:
			if err = undoOneUpdate(tx, db, tables, rec, force); err == nil {
				report.UpdatesReverted++
			}
		}
		return err
	})
	if err != nil {
		tx.Rollback()
		return report, err
	}
	return report, tx.Commit()
}

// rootTableIndex maps B-Tree root page ids (the ObjectID in log records) to
// catalog entries.
func rootTableIndex(tx *engine.Txn) (map[uint32]catalog.Table, error) {
	tables, err := tx.Tables()
	if err != nil {
		return nil, err
	}
	idx := make(map[uint32]catalog.Table, len(tables))
	for _, t := range tables {
		idx[uint32(t.Root)] = t
	}
	return idx, nil
}

func tableFor(tables map[uint32]catalog.Table, rec *wal.Record) (catalog.Table, error) {
	t, ok := tables[rec.ObjectID]
	if !ok {
		return catalog.Table{}, fmt.Errorf("asof: record at %v belongs to object %d which no longer exists (dropped table?)",
			rec.LSN, rec.ObjectID)
	}
	return t, nil
}

func undoOneInsert(tx *engine.Txn, tables map[uint32]catalog.Table, rec *wal.Record, force bool) error {
	t, err := tableFor(tables, rec)
	if err != nil {
		return err
	}
	_, val := btree.DecodeLeafRec(rec.NewData)
	inserted, err := row.Decode(val)
	if err != nil {
		return err
	}
	keyVals := inserted.Key(t.Schema)
	current, ok, err := tx.Get(t.Name, keyVals)
	if err != nil {
		return err
	}
	if !ok {
		// Someone already deleted it; nothing to remove.
		return nil
	}
	if !force && !bytes.Equal(row.Encode(current), row.Encode(inserted)) {
		return fmt.Errorf("%w: %s key %v", ErrUndoConflict, t.Name, keyVals)
	}
	return tx.Delete(t.Name, keyVals)
}

func undoOneDelete(tx *engine.Txn, tables map[uint32]catalog.Table, rec *wal.Record) error {
	t, err := tableFor(tables, rec)
	if err != nil {
		return err
	}
	_, val := btree.DecodeLeafRec(rec.OldData)
	deleted, err := row.Decode(val)
	if err != nil {
		return err
	}
	err = tx.Insert(t.Name, deleted)
	if errors.Is(err, engine.ErrRowExists) {
		// Someone re-inserted the key since: that is a conflict by
		// definition, but restoring over it would lose their row — report.
		return fmt.Errorf("%w: %s key %v re-inserted since", ErrUndoConflict, t.Name, deleted.Key(t.Schema))
	}
	return err
}

func undoOneUpdate(tx *engine.Txn, db *engine.DB, tables map[uint32]catalog.Table, rec *wal.Record, force bool) error {
	t, err := tableFor(tables, rec)
	if err != nil {
		return err
	}
	before, after, err := updateImages(db, rec)
	if err != nil {
		return err
	}
	_, oldVal := btree.DecodeLeafRec(before)
	oldRow, err := row.Decode(oldVal)
	if err != nil {
		return err
	}
	_, newVal := btree.DecodeLeafRec(after)
	newRow, err := row.Decode(newVal)
	if err != nil {
		return err
	}
	keyVals := oldRow.Key(t.Schema)
	current, ok, err := tx.Get(t.Name, keyVals)
	if err != nil {
		return err
	}
	if !ok {
		if force {
			return tx.Insert(t.Name, oldRow)
		}
		return fmt.Errorf("%w: %s key %v deleted since", ErrUndoConflict, t.Name, keyVals)
	}
	if !force && !bytes.Equal(row.Encode(current), row.Encode(newRow)) {
		return fmt.Errorf("%w: %s key %v", ErrUndoConflict, t.Name, keyVals)
	}
	return tx.Update(t.Name, oldRow)
}

// updateImages returns the whole leaf record before and after update record
// rec, which itself holds only the bytes that changed. Undoing a transaction
// compares and restores entire rows — a later change to any other byte of the
// row is a conflict — so the images come from the paper's own mechanism: the
// current page rewound to rec.LSN holds the row as rec left it, and one more
// undo step the row as rec found it.
func updateImages(db *engine.DB, rec *wal.Record) (before, after []byte, err error) {
	p := page.New()
	if err := copyPrimary(db, page.ID(rec.PageID), func(src *page.Page) { p.CopyFrom(src.Bytes()) }); err != nil {
		return nil, nil, err
	}
	if err := PreparePageAsOf(p, rec.LSN, db.Log(), nil); err != nil {
		return nil, nil, err
	}
	if cur, err := p.Get(int(rec.Slot)); err == nil {
		after = append(after, cur...)
	}
	if err := wal.Undo(p, rec); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrChainBroken, err)
	}
	before, err = p.Get(int(rec.Slot))
	return before, after, err
}
