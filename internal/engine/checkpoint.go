package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/wal"
)

// flushAll is the flush bound of a checkpoint that writes back every dirty
// page.
const flushAll = wal.LSN(math.MaxUint64)

// Checkpoint takes a flush-all checkpoint: when it returns, the data file
// holds every change logged before its begin record, and its dirty-page
// table is empty. Close, backup.Full (whose backup LSN is the begin record),
// Promote and every caller that wants the files current use it; the
// engine's own periodic checkpoints are fuzzy (see checkpoint).
func (db *DB) Checkpoint() error { return db.checkpoint(flushAll) }

// checkpoint takes a checkpoint that writes back only the dirty pages whose
// recLSN is below flushBelow:
//
//  1. log a checkpoint-begin record (carrying wall-clock time);
//  2. write back every dirty page whose recLSN is below flushBelow
//     (honoring the WAL rule);
//  3. capture the dirty-page table: each page still dirty with a change
//     logged before the begin record, with its recLSN. Captured after the
//     begin record, so a page dirtied later has a recLSN above it;
//  4. sync the data file, so every page written back before the capture —
//     here or by eviction — is durable;
//  5. log a checkpoint-end record carrying the active-transaction table,
//     the dirty-page table and a pointer to the previous checkpoint, then
//     force the log;
//  6. record the end LSN in the boot record as the recovery starting hint,
//     and the checkpoint's mark and time samples in a ckpt record, with
//     one control file append.
//
// Redo after a crash starts at the smaller of the begin record and the
// oldest recLSN in the table (wal.CheckpointData.RedoStart). The periodic
// checkpoints pass the previous checkpoint's begin LSN: a page is written
// back once it has stayed dirty through a whole interval, and redo never
// starts more than two intervals back.
//
// The wall-clock times in checkpoint records are what the SplitLSN search
// (§5.1) uses to narrow the log region before scanning commit records, and
// the previous-checkpoint pointer is what lets it walk checkpoints
// backwards in time. Periodic checkpoints also bound both crash recovery
// and as-of snapshot recovery time, since snapshot recovery starts at the
// checkpoint nearest the SplitLSN (§6.2).
func (db *DB) checkpoint(flushBelow wal.LSN) error {
	if db.standby.Load() {
		// A standby must not append to its shipped log; its durability
		// cadence is the replica checkpoint (repl.Replica), which flushes
		// pages and persists apply state without log records.
		return ErrStandby
	}
	ckptSpan := obs.StartSpan(db.opts.Clock, db.metrics.checkpointSeconds)
	now := db.opts.Clock.Now().UnixNano()
	begin := &wal.Record{Type: wal.TypeCheckpointBegin, PageID: wal.NoPage, WallClock: now}
	beginLSN, err := db.log.Append(begin)
	if err != nil {
		return fmt.Errorf("engine: checkpoint begin: %w", err)
	}
	written, err := db.pool.WriteBackBelow(uint64(flushBelow))
	db.metrics.ckptPagesWritten.Add(int64(written))
	if err != nil {
		return fmt.Errorf("engine: checkpoint flush: %w", err)
	}
	dirty := db.pool.DirtyPages(uint64(beginLSN))
	dpt := make([]wal.DirtyPage, len(dirty))
	for i, d := range dirty {
		dpt[i] = wal.DirtyPage{PageID: uint32(d.ID), RecLSN: wal.LSN(d.RecLSN)}
	}
	db.metrics.ckptDirtyPages.Set(int64(len(dpt)))
	if err := db.data.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint sync: %w", err)
	}
	db.mu.Lock()
	prevEnd := db.boot.lastCkptEnd
	db.mu.Unlock()
	if prevEnd >= beginLSN {
		// Not a predecessor: the boot record of a standby reseeded from a
		// backup and promoted before it ingested the backup's checkpoint
		// names bytes this log never held. Every walk of the chain needs
		// it to descend.
		prevEnd = wal.NilLSN
	}
	tli, hist := db.Timeline()
	data := wal.CheckpointData{
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
		DPT:     dpt,
	}
	end := &wal.Record{
		Type:      wal.TypeCheckpointEnd,
		PageID:    wal.NoPage,
		WallClock: now,
		Extra:     wal.EncodeCheckpoint(data),
	}
	endLSN, err := db.log.AppendFlush(end)
	if err != nil {
		return fmt.Errorf("engine: checkpoint end: %w", err)
	}
	db.mu.Lock()
	db.lastCkptAt = wal.LSN(db.log.Size())
	db.noteCheckpointLocked(CkptMark{WallClock: now, Begin: beginLSN, End: endLSN})
	db.mu.Unlock()
	if err := db.writeBoot(); err != nil {
		return err
	}
	db.CheckpointCount.Add(1)
	// Retention now performs real file I/O (segment unlink / archive
	// rename / syncs); a persistent failure — e.g. an archive directory on
	// another filesystem, where rename returns EXDEV — must surface, or
	// the log would grow without bound with zero diagnostics.
	if err := db.truncateForRetention(data.RedoStart()); err != nil {
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
		db.bgCkptErr.Store(ckptErrBox{db.checkpoint(db.prevCkptBegin())})
	}
}

// prevCkptBegin is the flush bound of a periodic checkpoint: the begin LSN
// of the last completed checkpoint, or no bound if there is none.
func (db *DB) prevCkptBegin() wal.LSN {
	if m, ok := db.LastCheckpointMark(); ok {
		return m.Begin
	}
	return flushAll
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
// page to any time within the retention window is kept. The cut never
// passes redoStart, where redo from the newest checkpoint starts, which
// crash recovery needs.
//
// The horizon checkpoint is found in the checkpoint index by its wall-clock
// time, so a checkpoint with none older than the horizon reads no log. Only
// when a cut is due is its record read, for the transactions active at it.
func (db *DB) truncateForRetention(redoStart wal.LSN) error {
	now := db.opts.Clock.Now()
	db.mu.Lock()
	retention := db.opts.Retention
	horizon := now.Add(-retention).UnixNano()
	i := sort.Search(len(db.ckptIndex), func(i int) bool { return db.ckptIndex[i].WallClock > horizon })
	var mark CkptMark
	if i > 0 {
		mark = db.ckptIndex[i-1]
	}
	db.mu.Unlock()
	if retention <= 0 || i == 0 {
		return nil
	}
	// A read error is an expected end (the record fell below an earlier
	// truncation) and means "nothing to cut"; only the truncation itself
	// may fail loudly.
	rec, err := db.log.Read(mark.End)
	if err != nil {
		return nil
	}
	data, err := wal.DecodeCheckpoint(rec.Extra)
	if err != nil {
		return nil
	}
	// Do not truncate past transactions active at that checkpoint, nor past
	// where redo from the newest checkpoint starts.
	cut := data.BeginLSN
	for _, e := range data.ATT {
		if e.BeginLSN != 0 && e.BeginLSN < cut {
			cut = e.BeginLSN
		}
	}
	cut = min(cut, redoStart)
	if err := db.log.Truncate(cut); err != nil {
		return err
	}
	db.pruneCkptIndex(cut)
	db.pruneATTMarks(cut)
	return nil
}

// pruneCkptIndex drops index entries whose records fell below the
// truncation point, and their ckpt records from the control file's live set.
func (db *DB) pruneCkptIndex(cut wal.LSN) {
	db.ctl.Retain(cut, math.MaxUint64)
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
