package engine

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Checkpoint takes a flush-all checkpoint:
//
//  1. log a checkpoint-begin record (carrying wall-clock time);
//  2. flush every dirty page (honoring the WAL rule), so all pages with
//     LSNs at or below the begin record are durable;
//  3. log a checkpoint-end record carrying the active-transaction table
//     and a pointer to the previous checkpoint, then force the log;
//  4. record the end LSN in the boot page as the recovery starting hint.
//
// The wall-clock times in checkpoint records are what the SplitLSN search
// (§5.1) uses to narrow the log region before scanning commit records, and
// the previous-checkpoint pointer is what lets it walk checkpoints
// backwards in time. Periodic checkpoints also bound both crash recovery
// and as-of snapshot recovery time, since snapshot recovery starts at the
// checkpoint nearest the SplitLSN (§6.2).
func (db *DB) Checkpoint() error {
	if db.standby.Load() {
		// A standby must not append to its shipped log; its durability
		// cadence is the replica checkpoint (repl.Replica), which flushes
		// pages and persists apply state without log records.
		return ErrStandby
	}
	ckptSpan := obs.StartSpan(db.opts.Clock, db.metrics.checkpointSeconds)
	now := db.opts.Now().UnixNano()
	begin := &wal.Record{Type: wal.TypeCheckpointBegin, PageID: wal.NoPage, WallClock: now}
	beginLSN, err := db.log.Append(begin)
	if err != nil {
		return fmt.Errorf("engine: checkpoint begin: %w", err)
	}
	if err := db.pool.FlushAll(); err != nil {
		return fmt.Errorf("engine: checkpoint flush: %w", err)
	}
	if err := db.data.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint sync: %w", err)
	}
	db.mu.Lock()
	prevEnd := db.boot.lastCkptEnd
	db.mu.Unlock()
	tli, hist := db.Timeline()
	end := &wal.Record{
		Type:      wal.TypeCheckpointEnd,
		PageID:    wal.NoPage,
		WallClock: now,
		Extra: wal.EncodeCheckpoint(wal.CheckpointData{
			BeginLSN: beginLSN,
			PrevEnd:  prevEnd,
			ATT:      db.activeATT(),
			// Piggyback the time→LSN samples taken since the previous
			// checkpoint so the sparse index survives restarts (§5.1).
			Times: db.log.TimeSamplesSince(prevEnd),
			// Carry the lineage so replicas adopt promotions from the
			// stream itself, not just the handshake.
			TLI:     tli,
			History: hist,
		}),
	}
	endLSN, err := db.log.AppendFlush(end)
	if err != nil {
		return fmt.Errorf("engine: checkpoint end: %w", err)
	}
	db.mu.Lock()
	db.boot.lastCkptEnd = endLSN
	db.lastCkptAt = wal.LSN(db.log.Size())
	db.ckptIndex = append(db.ckptIndex, CkptMark{WallClock: now, Begin: beginLSN, End: endLSN})
	db.mu.Unlock()
	if err := db.writeBoot(); err != nil {
		return err
	}
	db.CheckpointCount.Add(1)
	// Retention now performs real file I/O (segment unlink / archive
	// rename / syncs); a persistent failure — e.g. an archive directory on
	// another filesystem, where rename returns EXDEV — must surface, or
	// the log would grow without bound with zero diagnostics.
	if err := db.truncateForRetention(); err != nil {
		return fmt.Errorf("engine: retention: %w", err)
	}
	ckptSpan.End()
	return nil
}

// maybeAutoCheckpoint checkpoints when CheckpointEvery bytes of log have
// accumulated since the last checkpoint (the paper's 30 s target recovery
// interval, expressed in log volume so it works under a virtual clock).
func (db *DB) maybeAutoCheckpoint() {
	every := db.opts.CheckpointEvery
	if every <= 0 {
		return
	}
	db.mu.Lock()
	due := wal.LSN(db.log.Size()) >= db.lastCkptAt+wal.LSN(every)
	db.mu.Unlock()
	if due {
		// Best effort; concurrent checkpoints are harmless but wasteful,
		// so tolerate the small race on lastCkptAt. Failures (a full disk,
		// an unusable archive directory) are remembered for
		// BackgroundCheckpointErr rather than silently dropped — a
		// persistent retention failure otherwise grows the log without
		// bound with zero diagnostics.
		db.bgCkptErr.Store(ckptErrBox{db.Checkpoint()})
	}
}

// ckptErrBox wraps bgCkptErr values in one concrete type: atomic.Value
// panics if successive Stores carry different dynamic types, which bare
// errors (nil vs *fmt.wrapError) would.
type ckptErrBox struct{ err error }

// BackgroundCheckpointErr reports the most recent auto-checkpoint failure,
// or nil once an auto checkpoint has succeeded again. Operational surfaces
// (asofctl serve) poll it; explicit Checkpoint calls return their errors
// directly.
func (db *DB) BackgroundCheckpointErr() error {
	if v, ok := db.bgCkptErr.Load().(ckptErrBox); ok {
		return v.err
	}
	return nil
}

// truncateForRetention discards log before the newest checkpoint that is
// older than the retention period (§4.3): everything needed to rewind any
// page to any time within the retention window is kept.
func (db *DB) truncateForRetention() error {
	db.mu.Lock()
	retention := db.opts.Retention
	cur := db.boot.lastCkptEnd
	db.mu.Unlock()
	if retention <= 0 {
		return nil
	}
	horizon := db.opts.Now().Add(-retention).UnixNano()
	// Walk the checkpoint chain backwards to the newest checkpoint wholly
	// before the horizon. Walk errors are expected ends of the chain (the
	// records below an earlier truncation are gone) and mean "nothing to
	// cut"; only the truncation itself may fail loudly.
	for cur != wal.NilLSN {
		rec, err := db.log.Read(cur)
		if err != nil {
			return nil
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return nil
		}
		if rec.WallClock <= horizon {
			// Do not truncate past transactions active at that checkpoint.
			cut := data.BeginLSN
			for _, e := range data.ATT {
				if e.BeginLSN != 0 && e.BeginLSN < cut {
					cut = e.BeginLSN
				}
			}
			if err := db.log.Truncate(cut); err != nil {
				return err
			}
			db.pruneCkptIndex(cut)
			db.pruneATTMarks(cut)
			return nil
		}
		cur = data.PrevEnd
	}
	return nil
}

// pruneCkptIndex drops index entries whose records fell below the
// truncation point.
func (db *DB) pruneCkptIndex(cut wal.LSN) {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := 0
	for i < len(db.ckptIndex) && db.ckptIndex[i].End < cut {
		i++
	}
	if i > 0 {
		db.ckptIndex = append([]CkptMark(nil), db.ckptIndex[i:]...)
	}
}
