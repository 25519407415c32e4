package asof

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// ErrBeyondRetention is returned when the requested time predates the
// retention period (§4.3) — the log needed to rewind that far may be gone.
var ErrBeyondRetention = errors.New("asof: requested time is beyond the retention period")

// ErrReplicaLagging is returned when a snapshot on a standby resolves to a
// SplitLSN the replica's continuous redo has not reached yet. Callers wait
// for the apply loop to pass the split and retry (repl.Replica.SnapshotAsOf
// does exactly that, bounded by the observed replication lag).
var ErrReplicaLagging = errors.New("asof: standby redo has not reached the requested point yet")

// SplitPoint is the resolved target of an as-of snapshot: the SplitLSN
// (§5.1), the checkpoint the snapshot's recovery passes start from, and the
// transactions that were in flight at the SplitLSN (to be undone, §5.2).
type SplitPoint struct {
	// SplitLSN is the point in time the snapshot is recovered to.
	SplitLSN wal.LSN
	// CkptBegin is the begin record of the most recent checkpoint at or
	// before SplitLSN; analysis scans from here.
	CkptBegin wal.LSN
	// ATT lists transactions active at the SplitLSN, with their last log
	// record at or before it.
	ATT []wal.ATTEntry
	// LogScanned is the number of log bytes read by the resolution passes
	// (snapshot creation cost is bound by the log scanned, §6.2).
	LogScanned int64
}

// ResolveTime translates a wall-clock time into a SplitPoint, mirroring
// §5.1: the search first narrows the log region using the wall-clock times
// of the checkpoints (the engine's checkpoint index, binary-searched in
// memory) and the log's sparse time→LSN index (commit samples, likewise),
// then scans forward using transaction commit records to find the actual
// SplitLSN — the newest commit at or before the requested time. With the
// sparse index populated, the commit scan covers at most one sample
// interval (64 KiB of log) instead of the whole checkpoint-to-target
// region. Both indexes survive a restart: Open loads them from the
// control file's ckpt records, and recovery's scan adds the samples past
// the last checkpoint.
func ResolveTime(db *engine.DB, target time.Time) (SplitPoint, error) {
	now := db.Now()
	if retention := db.Retention(); retention > 0 && target.Before(now.Add(-retention)) {
		return SplitPoint{}, fmt.Errorf("%w: %v < %v", ErrBeyondRetention,
			target.Format(time.RFC3339), now.Add(-retention).Format(time.RFC3339))
	}
	targetNS := target.UnixNano()

	// Phase 1 (§5.1): narrow by checkpoint wall-clock times.
	ckptBegin := newestCheckpointNotAfter(db, targetNS)

	// Phase 1b: tighten the scan window with the sparse time index. A
	// sample is a commit at or before the target, so it is itself a valid
	// SplitLSN fallback and the newest qualifying commit cannot precede it.
	scanFrom, split := ckptBegin, ckptBegin
	if s, ok := db.Log().TimeFloor(targetNS); ok && s.LSN > scanFrom {
		scanFrom, split = s.LSN, s.LSN
	}

	// Phase 2: scan commit records forward from the window start to find
	// the SplitLSN.
	err := db.Log().Scan(scanFrom, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeCommit {
			if rec.WallClock <= targetNS {
				split = rec.LSN
				return true, nil
			}
			return false, nil // commits past the target: stop
		}
		return true, nil
	})
	if err != nil {
		return SplitPoint{}, err
	}
	return ResolveLSN(db, split)
}

// ResolveLSN builds a SplitPoint for an explicit LSN: the analysis pass
// (resolveAt) from the newest checkpoint that ended at or before it. That is
// not always the checkpoint ResolveTime narrowed by: a checkpoint stamped at
// or before the target can begin after the newest commit at or before it
// (one taken by the commit that ends the target's second), and its ATT,
// captured past the split, cannot seed analysis there.
func ResolveLSN(db *engine.DB, split wal.LSN) (SplitPoint, error) {
	ckptBegin, ckptEnd := newestCheckpointNotAfterLSN(db, split)
	return resolveAt(db, split, ckptBegin, ckptEnd)
}

// resolveAt runs the analysis pass (§5.2) — crash recovery's
// engine.RecoveryState — to rebuild the table of transactions in flight at
// the SplitLSN by replaying log records over a seed ATT.
//
// The seed is the newest available capture at or before the split: an
// engine AnalysisMark (a commitGate ATT capture taken every ~256 KiB of
// log) when one covers the split, else the checkpoint-end record's ATT.
// Marks shrink the replayed window from O(checkpoint interval) to O(mark
// interval) — on a busy system the analysis scan, not the commit search,
// dominates snapshot-creation cost.
//
// The ATT is seeded BEFORE the scan, exactly like crash recovery's
// analysis: the capture is taken mid-interval, so a transaction that
// committed between the capture and its end boundary appears in the seed
// AND has a commit record inside the scanned region — seeding first lets
// the scanned commit remove it. (The old seed-when-scanned-past ordering
// re-added such transactions after their commit had been processed, making
// snapshots undo committed work.)
func resolveAt(db *engine.DB, split, ckptBegin, ckptEnd wal.LSN) (SplitPoint, error) {
	st := engine.NewRecoveryState()
	scanFrom := ckptBegin
	if mark, ok := db.AnalysisMarkAtOrBefore(split); ok && mark.Begin > scanFrom {
		st.Seed(mark.ATT)
		scanFrom = mark.Begin
	} else if ckptEnd != wal.NilLSN && ckptEnd <= split {
		rec, err := db.Log().Read(ckptEnd)
		if err != nil {
			return SplitPoint{}, fmt.Errorf("asof: checkpoint end %v: %w", ckptEnd, err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return SplitPoint{}, err
		}
		st.Seed(data.ATT)
	}
	var scanned int64
	err := db.Log().Scan(scanFrom, func(rec *wal.Record) (bool, error) {
		if rec.LSN > split {
			return false, nil
		}
		scanned += int64(rec.ApproxSize())
		st.Observe(rec)
		return true, nil
	})
	if err != nil {
		return SplitPoint{}, err
	}
	return SplitPoint{SplitLSN: split, CkptBegin: ckptBegin, ATT: st.Inflight(), LogScanned: scanned}, nil
}

// newestCheckpointNotAfter finds the newest checkpoint whose wall-clock
// time is at or before targetNS, returning its begin LSN. The engine's
// in-memory checkpoint index (loaded from the control file at open) answers
// this with a binary search; if the index is empty the search degrades to
// the log's truncation point.
func newestCheckpointNotAfter(db *engine.DB, targetNS int64) wal.LSN {
	marks := db.CheckpointIndex()
	lo, hi := 0, len(marks) // first mark with WallClock > target
	for lo < hi {
		mid := (lo + hi) / 2
		if marks[mid].WallClock <= targetNS {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return db.Log().TruncationPoint()
	}
	return marks[lo-1].Begin
}

// newestCheckpointNotAfterLSN finds the newest checkpoint whose end record
// is at or before split, returning its begin and end LSNs.
func newestCheckpointNotAfterLSN(db *engine.DB, split wal.LSN) (begin, end wal.LSN) {
	marks := db.CheckpointIndex()
	lo, hi := 0, len(marks) // first mark with End > split
	for lo < hi {
		mid := (lo + hi) / 2
		if marks[mid].End <= split {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return db.Log().TruncationPoint(), wal.NilLSN
	}
	return marks[lo-1].Begin, marks[lo-1].End
}
