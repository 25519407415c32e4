package backup

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/wal"
)

type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock {
	return &vclock{t: time.Date(2012, 3, 22, 17, 0, 0, 0, time.UTC)}
}

func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func schema() *row.Schema {
	return &row.Schema{
		Name: "t",
		Columns: []row.Column{
			{Name: "id", Kind: row.KindInt64},
			{Name: "body", Kind: row.KindString},
		},
		KeyCols: 1,
	}
}

func r(id int, body string) row.Row {
	return row.Row{row.Int64(int64(id)), row.String(body)}
}

func exec(t *testing.T, db *engine.DB, fn func(tx *engine.Txn) error) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFullBackupAndRestoreToTime(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", r(i, "gen1")); err != nil {
				return err
			}
		}
		return nil
	})

	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pages == 0 || m.BackupLSN == 0 {
		t.Fatalf("manifest: %+v", m)
	}

	// More committed work after the backup, in two generations.
	gen2At := clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Update("t", r(i, "gen2")); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 100; i < 150; i++ {
			if err := tx.Insert("t", r(i, "gen3")); err != nil {
				return err
			}
		}
		return nil
	})

	// Restore to just after gen2's commit: sees gen2 but not gen3.
	rst, err := RestoreToTime(m, db.Log(), gen2At.Add(time.Second), filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	n, err := rst.CountRows("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("restored rows = %d, want 100", n)
	}
	rr, ok, err := rst.Get("t", row.Row{row.Int64(10)})
	if err != nil || !ok {
		t.Fatalf("restored get: ok=%v err=%v", ok, err)
	}
	if rr[1].Str != "gen2" {
		t.Fatalf("restored row = %v, want gen2", rr)
	}
	if _, ok, _ := rst.Get("t", row.Row{row.Int64(120)}); ok {
		t.Fatal("restore replayed past the target time")
	}
}

func TestRestoreAtBackupPoint(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "only")) })

	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := RestoreToLSN(m, db.Log(), m.BackupLSN, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rr, ok, err := rst.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok || rr[1].Str != "only" {
		t.Fatalf("restore at backup point: %v ok=%v err=%v", rr, ok, err)
	}
}

func TestRestoreUndoesInFlight(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "committed")) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// In-flight at the restore target.
	inflight, _ := db.Begin()
	if err := inflight.Update("t", r(1, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	split := db.Log().NextLSN() - 1
	rst, err := RestoreToLSN(m, db.Log(), split, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rr, ok, err := rst.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if rr[1].Str != "committed" {
		t.Fatalf("restore exposed uncommitted data: %v", rr)
	}
	inflight.Rollback()
}

// TestRestoreUndoesATransactionInFlightAtTheBackup: a transaction in flight
// when the backup was taken, and silent from then to the restore target, is
// in the backup image with its uncommitted change but in no record the
// restore replays; the analysis seed from the backup checkpoint's ATT is what
// gets it undone, as in crash recovery.
func TestRestoreUndoesATransactionInFlightAtTheBackup(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "committed")) })
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Rollback()
	if err := inflight.Update("t", r(1, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(2, "later")) })
	rst, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rr, ok, err := rst.Get("t", row.Row{row.Int64(1)}); err != nil || !ok || rr[1].Str != "committed" {
		t.Fatalf("row 1 restored as %v ok=%v err=%v, want the committed version", rr, ok, err)
	}
}

// TestRestoreUndoOfAnAllocRecordWithoutUndoByteIsChainCorrupt: an in-flight
// transaction's allocation bitmap record that carries no undo byte fails the
// restore with wal.ErrChainCorrupt. The restore's own copy of that undo read
// the byte unchecked and panicked.
func TestRestoreUndoOfAnAllocRecordWithoutUndoByteIsChainCorrupt(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const txn = 1 << 40
	begin, err := db.Log().Append(&wal.Record{Type: wal.TypeBegin, TxnID: txn, PageID: wal.NoPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Append(&wal.Record{Type: wal.TypeAllocBits, TxnID: txn, PrevLSN: begin,
		PageID: 1, Slot: 0, NewData: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "x")) })
	_, err = RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), nil)
	if !errors.Is(err, wal.ErrChainCorrupt) {
		t.Fatalf("restore undo of an alloc record without its undo byte: %v, want wal.ErrChainCorrupt", err)
	}
}

func TestRestoreRejectsPreBackupTarget(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreToLSN(m, db.Log(), m.BackupLSN-10, filepath.Join(dir, "x.db"), nil); err == nil {
		t.Fatal("restore before the backup point should fail")
	}
}

// TestRestoreBelowTruncationRefused: a restore whose backup predates the
// log's truncation point is refused with wal.ErrTruncated. Manager.Scan
// starts a scan from below the point at the point, so an unchecked restore
// skips the 50 rows inserted into t after the backup, replays u's creation
// and row, and returns no error.
func TestRestoreBelowTruncationRefused(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", r(i, "after-backup")); err != nil {
				return err
			}
		}
		return nil
	})
	// A retention cut past the backup LSN, at a record boundary.
	cut := db.Log().NextLSN()
	if err := db.Log().Truncate(cut); err != nil {
		t.Fatal(err)
	}
	if cut <= m.BackupLSN {
		t.Fatalf("cut %v does not pass the backup LSN %v; test layout broken", cut, m.BackupLSN)
	}
	clock.Advance(time.Minute)
	u := schema()
	u.Name = "u"
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(u) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("u", r(1, "after-cut")) })

	if rst, err := RestoreToTime(m, db.Log(), clock.Now(), filepath.Join(dir, "time.db"), nil); !errors.Is(err, wal.ErrTruncated) {
		if err == nil {
			n, _ := rst.CountRows("t", nil, nil)
			rst.Close()
			t.Fatalf("RestoreToTime below the truncation point succeeded with %d rows in t (50 were inserted); want wal.ErrTruncated", n)
		}
		t.Fatalf("RestoreToTime below the truncation point: %v, want wal.ErrTruncated", err)
	}
	if _, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "lsn.db"), nil); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("RestoreToLSN below the truncation point: %v, want wal.ErrTruncated", err)
	}
}

func TestBackupAndRestoreChargeSequentialIO(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	dataDev := media.New(media.SAS(), nil)
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock, DataDevice: dataDev})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("t", r(i, fmt.Sprintf("row-%04d", i))); err != nil {
				return err
			}
		}
		return nil
	})

	bakDev := media.New(media.SAS(), nil)
	m, err := Full(db, filepath.Join(dir, "full.bak"), bakDev)
	if err != nil {
		t.Fatal(err)
	}
	if bakDev.Stats.SeqWrites.Load() == 0 || bakDev.Stats.RandWrites.Load() != 0 {
		t.Fatalf("backup writes should be sequential: %+v", bakDev.Stats.Snapshot())
	}

	rstDev := media.New(media.SAS(), nil)
	rst, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), rstDev)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rstDev.Stats.SeqWrites.Load() < int64(m.Pages) {
		t.Fatalf("restore should write the whole image sequentially: %+v", rstDev.Stats.Snapshot())
	}
	if rstDev.Clock.Elapsed() == 0 {
		t.Fatal("restore charged no time")
	}
}
