// Package backup implements the traditional backup-restore baseline the
// paper compares against (§1, §6.2): full database backups taken by
// sequentially copying the data file, and point-in-time restore by copying
// the backup back and replaying the transaction log forward to the target
// time. A restore is crash recovery run on the copy: one forward pass of
// the engine's analysis and batch redo from the backup LSN, then the
// unlogged undo of the transactions still in flight where the pass stops.
// Its cost is the database size plus the log replayed, read once — the flat,
// large cost in Figures 7 and 8 — regardless of how little data the user
// actually needs.
//
// It also provides the §6.4 generalization: given both mechanisms, choose
// the fastest way to access data in the past (roll the backup forward, or
// rewind the current state backward).
package backup

import (
	"errors"
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

// ErrBeforeBackup is returned for a restore target older than the backup:
// a restore only rolls the image forward.
var ErrBeforeBackup = errors.New("backup: restore target precedes the backup")

// RestoreToTime restores the backup to destPath and rolls it forward to the
// last transaction committed at or before target, reading the log from
// srcLog as it stands at the call; dev charges the restored file's I/O. A
// target before the backup's TakenAt is ErrBeforeBackup. The pass stops at
// the first commit stamped past target, without observing it, and undoes
// every transaction with no commit by then: the rows kept are those of
// RestoreToLSN at the newest commit at or before target. Every commit up to
// the backup checkpoint's end record is stamped at or before TakenAt, so the
// stop is past that record, and its ATT always seeds the analysis.
func RestoreToTime(m Manifest, srcLog *wal.Manager, target time.Time, destPath string, dev *media.Device) (*Restored, error) {
	if target.Before(m.TakenAt) {
		return nil, fmt.Errorf("%w: %v is before %v", ErrBeforeBackup, target, m.TakenAt)
	}
	end, targetNS := srcLog.NextLSN()-1, target.UnixNano()
	return restore(m, srcLog, end, true, func(rec *wal.Record) bool {
		return rec.LSN > end || rec.Type == wal.TypeCommit && rec.WallClock > targetNS
	}, destPath, dev)
}

// RestoreToLSN restores the backup and replays the log up to split.
func RestoreToLSN(m Manifest, srcLog *wal.Manager, split wal.LSN, destPath string, dev *media.Device) (*Restored, error) {
	if split < m.BackupLSN {
		return nil, fmt.Errorf("%w: LSN %v is below backup LSN %v", ErrBeforeBackup, split, m.BackupLSN)
	}
	seed := m.CkptEnd != wal.NilLSN && m.CkptEnd <= split
	return restore(m, srcLog, split, seed, func(rec *wal.Record) bool { return rec.LSN > split }, destPath, dev)
}

// restore copies the backup image to destPath and runs crash recovery on the
// copy: one forward pass from the backup LSN observes and redoes (the shared
// batch redo) each record up to the first that stop reports, then undoes the
// transactions in flight there, unlogged, stamping split, at or past the
// last record redone, on the pages it allocates. seed: the backup
// checkpoint's ATT seeds the analysis, before the scan (see asof's resolveAt).
func restore(m Manifest, srcLog *wal.Manager, split wal.LSN, seed bool, stop func(*wal.Record) bool, destPath string, dev *media.Device) (*Restored, error) {
	// A scan from below the truncation point would start at it, skipping log.
	if t := srcLog.TruncationPoint(); m.BackupLSN < t {
		return nil, fmt.Errorf("backup: replay from %v: %w (truncation point %v)", m.BackupLSN, wal.ErrTruncated, t)
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
	boot := make([]byte, page.Size)
	if err == nil {
		err = dst.ReadPage(0, boot)
	}
	r := &Restored{data: dst}
	if err == nil {
		r.roots, err = engine.DecodeBootRoots(boot)
	}
	if err != nil {
		dst.Close()
		return nil, err
	}
	r.UnloggedStore = engine.NewUnloggedStore(512, (*restoreSource)(r), split)

	// 2. Analysis and redo in one forward pass, as crash recovery runs them.
	st := engine.NewRecoveryState()
	if seed {
		st.Seed(m.ATT)
	}
	var redo engine.BatchRedo
	_, err = srcLog.ScanBatches(m.BackupLSN, func(recs []*wal.Record) (bool, error) {
		n := 0
		for ; n < len(recs) && !stop(recs[n]); n++ {
			st.Observe(recs[n])
		}
		return n == len(recs), redo.Redo(r.Pool(), dst.PageCount(), recs[:n], nil)
	})
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("backup: replay: %w", err)
	}

	// 3. Undo the transactions in flight at the stop (logical, unlogged),
	// reading their chains as a snapshot's undo does.
	rdr := srcLog.ChainReader()
	defer rdr.Close()
	for _, e := range st.Inflight() {
		if err := r.UndoTxn(rdr.Read, e); err != nil {
			dst.Close()
			return nil, fmt.Errorf("backup: restore %w", err)
		}
	}
	return r, nil
}

// Close releases the restored database (the file remains on disk).
func (r *Restored) Close() error { return r.data.Close() }

// restoreSource reads/writes the restored data file.
type restoreSource Restored

func (src *restoreSource) ReadPage(id page.ID, buf []byte) error {
	return (*Restored)(src).data.ReadPage(id, buf)
}

// ReadRun reads consecutive pages with one device read, so the batch redo
// reads the restored file ahead in runs (buffer.RunReader).
func (src *restoreSource) ReadRun(first page.ID, bufs [][]byte) error {
	return (*Restored)(src).data.ReadRun(first, bufs)
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
