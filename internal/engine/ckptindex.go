package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/control"
	"repro/internal/wal"
)

// CkptMark is one entry of the in-memory checkpoint index: the wall-clock
// time and begin/end LSNs of a completed checkpoint. The index is what lets
// the SplitLSN search (§5.1) narrow the log region without reading
// checkpoint records back from disk. It is persisted as the control file's
// ckpt records, which Open reads in one step; only checkpoints the file does
// not hold yet are read back from the log.
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

// noteCheckpointLocked adds a completed checkpoint to the index and makes it
// the boot record's recovery hint, unless the index already holds one at or
// past it: two checkpoints that race finish in either order, and recovery's
// scan and a standby's apply pass checkpoints the index may already hold.
// The control file takes its ckpt record with the next boot record write
// (writeBoot).
// Caller holds db.mu.
func (db *DB) noteCheckpointLocked(mark CkptMark) {
	if n := len(db.ckptIndex); n == 0 || db.ckptIndex[n-1].End < mark.End {
		db.ckptIndex = append(db.ckptIndex, mark)
		db.boot.lastCkptEnd = mark.End
	}
}

// loadCkptIndex builds the checkpoint index and reseeds the log's time→LSN
// index when the database opens. It takes the control file's ckpt records
// at or above the truncation point, then walks the checkpoint-end chain back
// from the boot record, but only down to the newest of them: in the normal
// case the boot record names that one and no record is read. A database
// that lost its control file walks the whole chain once. Records the chain
// does not pass through are dropped, and the checkpoints walked are appended
// to the control file. A checkpoint that does not name a predecessor below
// itself is a corrupt chain.
func (db *DB) loadCkptIndex() error {
	trunc := db.log.TruncationPoint()
	var entries []control.Checkpoint
	for _, r := range db.ctl.Records(control.KindCkpt) {
		if c, _ := control.ParseCheckpoint(r.Body); c.End >= trunc {
			entries = append(entries, c)
		}
	}

	// Walk the chain down to the control file's records (newest first).
	var walked []control.Checkpoint
	for cur := db.LastCheckpointEnd(); cur != wal.NilLSN; {
		if cur >= db.log.NextLSN() {
			// The boot record points past the local log: a reseeded standby
			// whose log begins at the backup checkpoint and has not yet
			// ingested that far. Its apply adds those checkpoints as their
			// records arrive.
			break
		}
		for len(entries) > 0 && entries[len(entries)-1].End > cur {
			entries = entries[:len(entries)-1]
		}
		if n := len(entries); n > 0 && entries[n-1].End == cur {
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
		walked = append(walked, control.Checkpoint{WallClock: rec.WallClock, Begin: data.BeginLSN, End: rec.LSN, Times: data.Times})
		if data.PrevEnd >= cur {
			return fmt.Errorf("%w: checkpoint end at %v names %v as its predecessor, not below it",
				wal.ErrChainCorrupt, cur, data.PrevEnd)
		}
		cur = data.PrevEnd
	}
	top := wal.NilLSN
	if n := len(entries); n > 0 {
		top = entries[n-1].End
	}
	db.ctl.Retain(trunc, top)
	slices.Reverse(walked)
	entries = append(entries, walked...)

	// Each record's samples follow the checkpoint before it, so the
	// samples concatenate in LSN order.
	marks := make([]CkptMark, 0, len(entries))
	var samples []wal.TimeSample
	for _, e := range entries {
		marks = append(marks, CkptMark{WallClock: e.WallClock, Begin: e.Begin, End: e.End})
		samples = append(samples, e.Times...)
	}
	db.log.SeedTimeIndex(samples)
	db.mu.Lock()
	db.ckptIndex = marks
	db.mu.Unlock()
	if len(walked) > 0 {
		return db.writeBoot()
	}
	return nil
}
