// Package backup implements the traditional backup-restore baseline the
// paper compares against (§1, §6.2): full database backups taken by
// sequentially copying the data file, and point-in-time restore by copying
// the backup back and replaying the transaction log forward to the target
// time. Restore cost is proportional to the database size plus the log
// replayed — the flat, large cost in Figures 7 and 8 — regardless of how
// little data the user actually needs.
//
// It also provides the §6.4 generalization: given both mechanisms, choose
// the fastest way to access data in the past (roll the backup forward, or
// rewind the current state backward).
package backup

import (
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/disk"
	"repro/internal/storage/media"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// Manifest describes a full backup.
type Manifest struct {
	// Path of the backup image.
	Path string
	// BackupLSN is the checkpoint-begin LSN the backup is consistent with;
	// restores replay the log forward from here.
	BackupLSN wal.LSN
	// CkptEnd is the LSN of the backup checkpoint's end record, and ATT the
	// transactions it recorded in flight — what a replica reseeded from this
	// image needs to resume exact incremental analysis at BackupLSN without
	// any local history.
	CkptEnd wal.LSN
	ATT     []wal.ATTEntry
	// Pages is the number of pages in the image.
	Pages uint32
	// TakenAt is the engine wall-clock time of the backup.
	TakenAt time.Time
}

// Full takes a full database backup: a checkpoint followed by a sequential
// copy of every page to path. dev is the media device charged for writing
// the backup image (nil = uncharged).
func Full(db *engine.DB, path string, dev *media.Device) (Manifest, error) {
	var end wal.LSN
	var data wal.CheckpointData
	for {
		if err := db.Checkpoint(); err != nil {
			return Manifest{}, err
		}
		end = db.LastCheckpointEnd()
		rec, err := db.Log().Read(end)
		if err != nil {
			return Manifest{}, fmt.Errorf("backup: read checkpoint: %w", err)
		}
		if data, err = wal.DecodeCheckpoint(rec.Extra); err != nil {
			return Manifest{}, err
		}
		// A periodic checkpoint that ended in between is the last one now;
		// if it left pages dirty, the files are not current at its begin
		// record, so take another.
		if len(data.DPT) == 0 {
			break
		}
	}
	dst, err := disk.Open(path, dev)
	if err != nil {
		return Manifest{}, err
	}
	defer dst.Close()
	next := page.ID(0)
	err = db.Data().SequentialRead(func(id page.ID, buf []byte) error {
		if id != next {
			return fmt.Errorf("backup: non-sequential page %d", id)
		}
		next++
		return dst.WritePageSeq(id, buf)
	})
	if err != nil {
		return Manifest{}, err
	}
	if err := dst.Sync(); err != nil {
		return Manifest{}, err
	}
	return Manifest{
		Path:      path,
		BackupLSN: data.BeginLSN,
		CkptEnd:   end,
		ATT:       data.ATT,
		Pages:     uint32(next),
		TakenAt:   db.Now(),
	}, nil
}

// Restored is a point-in-time restored database: a full copy rolled forward
// to the target, with in-flight transactions undone. It serves the same
// read-only query surface as an as-of snapshot, so the paper's recovery
// walkthrough works identically against either mechanism; its btree.Store is
// the embedded engine.UnloggedStore, whose pool reads the restored file.
type Restored struct {
	*engine.UnloggedStore

	data  *disk.File
	roots catalog.Roots
}

// RestoreToTime restores the backup to destPath and rolls it forward to the
// last transaction committed at or before target, reading the log from
// srcLog. dev charges the restored file's I/O.
func RestoreToTime(m Manifest, srcLog *wal.Manager, target time.Time, destPath string, dev *media.Device) (*Restored, error) {
	split, err := splitForTime(srcLog, m.BackupLSN, target)
	if err != nil {
		return nil, err
	}
	return RestoreToLSN(m, srcLog, split, destPath, dev)
}

// splitForTime finds the newest commit at or before target, scanning
// forward from the backup LSN (the restore already pays for this scan).
func splitForTime(srcLog *wal.Manager, from wal.LSN, target time.Time) (wal.LSN, error) {
	if err := checkRetained(srcLog, from); err != nil {
		return wal.NilLSN, err
	}
	targetNS := target.UnixNano()
	split := from
	err := srcLog.Scan(from, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeCommit {
			if rec.WallClock <= targetNS {
				split = rec.LSN
				return true, nil
			}
			return false, nil
		}
		return true, nil
	})
	return split, err
}

// RestoreToLSN restores the backup and replays the log up to split.
func RestoreToLSN(m Manifest, srcLog *wal.Manager, split wal.LSN, destPath string, dev *media.Device) (*Restored, error) {
	if split < m.BackupLSN {
		return nil, fmt.Errorf("backup: target %v predates backup LSN %v", split, m.BackupLSN)
	}
	if err := checkRetained(srcLog, m.BackupLSN); err != nil {
		return nil, err
	}
	// 1. Copy the backup image (sequential read + sequential write).
	// The image file is opened uncharged: the loop below charges each page
	// read from it to dev as a sequential read, beside the write to dst.
	src, err := disk.Open(m.Path, nil)
	if err != nil {
		return nil, err
	}
	dst, err := disk.Open(destPath, dev)
	if err != nil {
		src.Close()
		return nil, err
	}
	err = src.SequentialRead(func(id page.ID, buf []byte) error {
		dev.ChargeRead(page.Size, true) // reading the backup image
		return dst.WritePageSeq(id, buf)
	})
	src.Close()
	if err != nil {
		dst.Close()
		return nil, err
	}

	r := &Restored{data: dst}
	r.UnloggedStore = engine.NewUnloggedStore(512, (*restoreSource)(r), split)
	if err := r.readBoot(); err != nil {
		dst.Close()
		return nil, err
	}

	// 2. Analysis and redo in one forward pass from the backup point to the
	// split — crash recovery's passes, on the restored pool. The backup's
	// checkpoint ATT seeds the analysis when the split is past its end record.
	st := engine.NewRecoveryState()
	if m.CkptEnd != wal.NilLSN && m.CkptEnd <= split {
		st.Seed(m.ATT)
	}
	err = srcLog.Scan(m.BackupLSN, func(rec *wal.Record) (bool, error) {
		if rec.LSN > split {
			return false, nil
		}
		st.Observe(rec)
		return true, engine.RedoInto(r.Pool(), rec)
	})
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("backup: replay: %w", err)
	}

	// 3. Undo in-flight transactions at the split (logical, unlogged).
	for _, e := range st.Inflight() {
		if err := r.UndoTxn(srcLog.Read, e); err != nil {
			dst.Close()
			return nil, fmt.Errorf("backup: restore %w", err)
		}
	}
	return r, nil
}

// checkRetained refuses a replay from below srcLog's truncation point:
// Manager.Scan clamps such a start up to the point, which would skip the log
// in between and restore a database missing its changes.
func checkRetained(srcLog *wal.Manager, from wal.LSN) error {
	if t := srcLog.TruncationPoint(); from < t {
		return fmt.Errorf("backup: replay from %v: %w (truncation point %v)", from, wal.ErrTruncated, t)
	}
	return nil
}

// Close releases the restored database (the file remains on disk).
func (r *Restored) Close() error {
	return r.data.Close()
}

func (r *Restored) readBoot() error {
	buf := make([]byte, page.Size)
	if err := r.data.ReadPage(0, buf); err != nil {
		return err
	}
	roots, err := engine.DecodeBootRoots(buf)
	if err != nil {
		return err
	}
	r.roots = roots
	return nil
}

// restoreSource reads/writes the restored data file.
type restoreSource Restored

func (src *restoreSource) ReadPage(id page.ID, buf []byte) error {
	return (*Restored)(src).data.ReadPage(id, buf)
}

func (src *restoreSource) WritePage(id page.ID, buf []byte) error {
	if (*Restored)(src).IsLocalPage(id) {
		return nil // undo-scratch pages never persist
	}
	return (*Restored)(src).data.WritePage(id, buf)
}

// --- read-only query surface (same shape as asof.Snapshot) ---

// Table resolves a table by name in the restored catalog.
func (r *Restored) Table(name string) (catalog.Table, error) {
	return catalog.LookupByName(r, r.roots, name)
}

// Tables lists the restored catalog.
func (r *Restored) Tables() ([]catalog.Table, error) {
	return catalog.List(r, r.roots)
}

// Get fetches a row by primary key from the restored database.
func (r *Restored) Get(table string, keyVals row.Row) (row.Row, bool, error) {
	t, err := r.Table(table)
	if err != nil {
		return nil, false, err
	}
	val, ok, err := btree.Get(r, t.Root, row.EncodeKey(keyVals))
	if err != nil || !ok {
		return nil, false, err
	}
	rr, err := row.Decode(val)
	return rr, true, err
}

// GetMany fetches the rows with the given primary keys, one Get each; the
// result has one entry per key, nil where no row exists.
func (r *Restored) GetMany(table string, keys []row.Row) ([]row.Row, error) {
	out := make([]row.Row, len(keys))
	for i, k := range keys {
		var err error
		if out[i], _, err = r.Get(table, k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan iterates rows of the restored database, keys in [from, to).
func (r *Restored) Scan(table string, from, to row.Row, fn func(row.Row) bool) error {
	t, err := r.Table(table)
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
	err = btree.Scan(r, t.Root, fromKey, toKey, func(_, val []byte) bool {
		rr, err := row.Decode(val)
		if err != nil {
			inner = err
			return false
		}
		return fn(rr)
	})
	if err == nil {
		err = inner
	}
	return err
}

// CountRows counts rows in the restored database.
func (r *Restored) CountRows(table string, from, to row.Row) (int, error) {
	n := 0
	err := r.Scan(table, from, to, func(row.Row) bool {
		n++
		return true
	})
	return n, err
}
