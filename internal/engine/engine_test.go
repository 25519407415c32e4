package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/row"
	"repro/internal/txn"
	"repro/internal/wal"
)

func testSchema(name string) *row.Schema {
	return &row.Schema{
		Name: name,
		Columns: []row.Column{
			{Name: "id", Kind: row.KindInt64},
			{Name: "body", Kind: row.KindString},
			{Name: "qty", Kind: row.KindInt64},
		},
		KeyCols: 1,
	}
}

func testRow(id int, body string, qty int) row.Row {
	return row.Row{row.Int64(int64(id)), row.String(body), row.Int64(int64(qty))}
}

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !db.closed.Load() {
			db.Close()
		}
	})
	return db
}

func mustExec(t *testing.T, db *DB, fn func(tx *Txn) error) {
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

func TestCreateInsertGet(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("items")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("items", testRow(i, fmt.Sprintf("item-%d", i), i*2)); err != nil {
				return err
			}
		}
		return nil
	})
	mustExec(t, db, func(tx *Txn) error {
		r, ok, err := tx.Get("items", row.Row{row.Int64(25)})
		if err != nil || !ok {
			return fmt.Errorf("get 25: ok=%v err=%v", ok, err)
		}
		if r[1].Str != "item-25" || r[2].Int != 50 {
			return fmt.Errorf("row 25 = %v", r)
		}
		if _, ok, _ := tx.Get("items", row.Row{row.Int64(999)}); ok {
			return errors.New("phantom row 999")
		}
		return nil
	})
}

func TestUpdateDeleteScan(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 20; i++ {
			if err := tx.Insert("t", testRow(i, "x", i)); err != nil {
				return err
			}
		}
		return nil
	})
	mustExec(t, db, func(tx *Txn) error {
		if err := tx.Update("t", testRow(5, "updated", 500)); err != nil {
			return err
		}
		return tx.Delete("t", row.Row{row.Int64(6)})
	})
	mustExec(t, db, func(tx *Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 19 {
			return fmt.Errorf("count = %d, want 19", n)
		}
		// Range scan [3, 8).
		var ids []int64
		err = tx.Scan("t", row.Row{row.Int64(3)}, row.Row{row.Int64(8)}, func(r row.Row) bool {
			ids = append(ids, r[0].Int)
			return true
		})
		if err != nil {
			return err
		}
		want := []int64{3, 4, 5, 7}
		if len(ids) != len(want) {
			return fmt.Errorf("scan ids = %v, want %v", ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				return fmt.Errorf("scan ids = %v, want %v", ids, want)
			}
		}
		return nil
	})
}

func TestDuplicateAndMissingRows(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "a", 1)) })

	tx, _ := db.Begin()
	if err := tx.Insert("t", testRow(1, "dup", 1)); !errors.Is(err, ErrRowExists) {
		t.Fatalf("dup insert: %v", err)
	}
	tx.Rollback()

	tx, _ = db.Begin()
	if err := tx.Update("t", testRow(9, "x", 1)); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := tx.Delete("t", row.Row{row.Int64(9)}); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	tx.Rollback()
}

func TestRollbackUndoesEverything(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		return tx.Insert("t", testRow(1, "original", 10))
	})

	tx, _ := db.Begin()
	if err := tx.Insert("t", testRow(2, "new", 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", testRow(1, "mutated", 99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("t", row.Row{row.Int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	mustExec(t, db, func(tx *Txn) error {
		r, ok, err := tx.Get("t", row.Row{row.Int64(1)})
		if err != nil || !ok {
			return fmt.Errorf("row 1 gone after rollback: ok=%v err=%v", ok, err)
		}
		if r[1].Str != "original" || r[2].Int != 10 {
			return fmt.Errorf("row 1 not restored: %v", r)
		}
		if _, ok, _ := tx.Get("t", row.Row{row.Int64(2)}); ok {
			return errors.New("inserted row survived rollback")
		}
		return nil
	})
}

func TestRollbackOfManyInsertsAcrossSplits(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	// Insert enough to force splits, then roll back.
	tx, _ := db.Begin()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'z'
	}
	for i := 0; i < 200; i++ {
		if err := tx.Insert("t", testRow(i, string(long), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("%d rows survived rollback", n)
		}
		return nil
	})
	// The table remains fully usable (splits persisted as nested top
	// actions, content rolled back).
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", testRow(i, "fresh", i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestDDLRollback(t *testing.T) {
	db := openTestDB(t, Options{})
	tx, _ := db.Begin()
	if err := tx.CreateTable(testSchema("temp")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("temp", testRow(1, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	defer tx2.Rollback()
	if _, err := tx2.Table("temp"); err == nil {
		t.Fatal("rolled-back table still visible")
	}
}

func TestDropTable(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("doomed")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("doomed", testRow(i, "data", i)); err != nil {
				return err
			}
		}
		return nil
	})
	mustExec(t, db, func(tx *Txn) error { return tx.DropTable("doomed") })
	tx, _ := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Table("doomed"); err == nil {
		t.Fatal("dropped table still visible")
	}
	// Recreate with the same name: page reuse exercises preformat records.
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("doomed")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("doomed", testRow(1, "reborn", 1)) })
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", testRow(i, "committed", i)); err != nil {
				return err
			}
		}
		return nil
	})
	// An in-flight transaction at crash time.
	tx, _ := db.Begin()
	for i := 100; i < 150; i++ {
		if err := tx.Insert("t", testRow(i, "inflight", i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 100 {
			return fmt.Errorf("after recovery: %d rows, want 100 (uncommitted rolled back)", n)
		}
		r, ok, err := tx.Get("t", row.Row{row.Int64(42)})
		if err != nil || !ok || r[1].Str != "committed" {
			return fmt.Errorf("committed row lost: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

func TestCrashRecoveryUncommittedNeverFlushed(t *testing.T) {
	// Crash immediately after commit-flush of txn A while txn B never
	// committed; no checkpoint at all after creation.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "a", 1)) })
	db.Crash()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustExec(t, db2, func(tx *Txn) error {
		r, ok, err := tx.Get("t", row.Row{row.Int64(1)})
		if err != nil || !ok || r[1].Str != "a" {
			return fmt.Errorf("redo lost the committed row: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "x", 1)) })
	db.Crash()
	// Recover twice.
	for i := 0; i < 2; i++ {
		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		mustExec(t, db2, func(tx *Txn) error {
			if _, ok, err := tx.Get("t", row.Row{row.Int64(1)}); !ok || err != nil {
				return fmt.Errorf("row missing on reopen %d: %v", i, err)
			}
			return nil
		})
		db2.Crash()
	}
}

func TestLockConflictBlocksSecondWriter(t *testing.T) {
	db := openTestDB(t, Options{})
	db.locks = txn.NewLockManager(100 * time.Millisecond) // the 10 s lockTimeout, shortened
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "v", 1)) })

	tx1, _ := db.Begin()
	if err := tx1.Update("t", testRow(1, "tx1", 1)); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	err := tx2.Update("t", testRow(1, "tx2", 2))
	if !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("second writer: %v, want lock timeout", err)
	}
	tx2.Rollback()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error {
		r, _, _ := tx.Get("t", row.Row{row.Int64(1)})
		if r[1].Str != "tx1" {
			return fmt.Errorf("row = %v", r)
		}
		return nil
	})
}

func TestConcurrentClients(t *testing.T) {
	db := openTestDB(t, Options{BufferFrames: 256})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("acct")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 64; i++ {
			if err := tx.Insert("acct", testRow(i, "acct", 100)); err != nil {
				return err
			}
		}
		return nil
	})

	var wg sync.WaitGroup
	var commits, aborts atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				a := (w*7 + i) % 64
				b := (w*13 + i*3) % 64
				err = transfer(tx, a, b)
				if err != nil {
					tx.Rollback()
					aborts.Add(1)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()
	t.Logf("commits=%d aborts=%d", commits.Load(), aborts.Load())
	if commits.Load() == 0 {
		t.Fatal("no transaction committed")
	}
	// Invariant: total quantity conserved across transfers.
	mustExec(t, db, func(tx *Txn) error {
		total := int64(0)
		err := tx.Scan("acct", nil, nil, func(r row.Row) bool {
			total += r[2].Int
			return true
		})
		if err != nil {
			return err
		}
		if total != 64*100 {
			return fmt.Errorf("total = %d, want %d", total, 64*100)
		}
		return nil
	})
}

func transfer(tx *Txn, a, b int) error {
	if a == b {
		return nil
	}
	ra, ok, err := tx.Get("acct", row.Row{row.Int64(int64(a))})
	if err != nil || !ok {
		return fmt.Errorf("get a: %v", err)
	}
	rb, ok, err := tx.Get("acct", row.Row{row.Int64(int64(b))})
	if err != nil || !ok {
		return fmt.Errorf("get b: %v", err)
	}
	ra[2].Int--
	rb[2].Int++
	if err := tx.Update("acct", ra); err != nil {
		return err
	}
	return tx.Update("acct", rb)
}

func TestAutoCheckpoint(t *testing.T) {
	db := openTestDB(t, Options{CheckpointEvery: 64 << 10})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	before := db.CheckpointCount.Load()
	for i := 0; i < 40; i++ {
		mustExec(t, db, func(tx *Txn) error {
			for j := 0; j < 20; j++ {
				if err := tx.Insert("t", testRow(i*100+j, "checkpoint me", j)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if db.CheckpointCount.Load() <= before {
		t.Fatal("auto checkpoint never fired")
	}
}

// TestAutoCheckpointIsFuzzy: a periodic checkpoint writes back only pages
// that stayed dirty through a whole interval and lists the rest, each with a
// recLSN no older than the previous checkpoint's begin; an explicit
// Checkpoint leaves nothing dirty. The metrics agree with the log.
func TestAutoCheckpointIsFuzzy(t *testing.T) {
	db := openTestDB(t, Options{CheckpointEvery: 16 << 10})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	for i := 0; i < 200; i++ {
		mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(i, fmt.Sprintf("%0100d", i), i)) })
	}
	lastCkpt := func() wal.CheckpointData {
		t.Helper()
		rec, err := db.Log().Read(db.LastCheckpointEnd())
		if err != nil {
			t.Fatal(err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	marks := db.CheckpointIndex()
	if len(marks) < 3 {
		t.Fatalf("%d checkpoints, want periodic ones", len(marks))
	}
	data := lastCkpt()
	if len(data.DPT) == 0 {
		t.Fatal("the periodic checkpoint listed no dirty page")
	}
	if prev := marks[len(marks)-2].Begin; data.RedoStart() < prev {
		t.Fatalf("redo start %v is older than the previous checkpoint's begin %v", data.RedoStart(), prev)
	}
	snap := db.Obs().Snapshot()
	if got := snap["engine_checkpoint_dirty_pages"]; got != float64(len(data.DPT)) {
		t.Fatalf("engine_checkpoint_dirty_pages = %v, the log says %d", got, len(data.DPT))
	}
	byCheckpoint := snap[`buffer_writebacks_total{cause="checkpoint"}`]
	if byCheckpoint == 0 || byCheckpoint != snap["engine_checkpoint_pages_written_total"] {
		t.Fatalf("checkpoint write-backs: by cause %v, by the engine %v", byCheckpoint, snap["engine_checkpoint_pages_written_total"])
	}
	if sum := byCheckpoint + snap[`buffer_writebacks_total{cause="eviction"}`]; sum != snap["buffer_pool_writebacks_total"] {
		t.Fatalf("write-backs by cause add up to %v, total %v", sum, snap["buffer_pool_writebacks_total"])
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if data := lastCkpt(); len(data.DPT) != 0 || db.Obs().Snapshot()["engine_checkpoint_dirty_pages"] != 0 {
		t.Fatalf("an explicit checkpoint left %d pages dirty", len(data.DPT))
	}
}

func TestPageImageEveryNLogsImages(t *testing.T) {
	db := openTestDB(t, Options{PageImageEvery: 10})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", testRow(i, "imaged", i)); err != nil {
				return err
			}
		}
		return nil
	})
	images := 0
	var lastImageChain []wal.LSN
	if err := db.Log().Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeImage {
			images++
			lastImageChain = append(lastImageChain, rec.PrevImageLSN)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if images == 0 {
		t.Fatal("no image records logged with PageImageEvery=10")
	}
	// At least one image must chain to a previous image (same hot page).
	chained := false
	for _, prev := range lastImageChain {
		if prev != wal.NilLSN {
			chained = true
		}
	}
	if !chained {
		t.Fatal("image records never chained via PrevImageLSN")
	}
}

func TestReadOnlyTxnLogsNothing(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	sizeBefore := db.Log().Size()
	mustExec(t, db, func(tx *Txn) error {
		_, _, err := tx.Get("t", row.Row{row.Int64(1)})
		return err
	})
	if db.Log().Size() != sizeBefore {
		t.Fatalf("read-only txn grew the log by %d bytes", db.Log().Size()-sizeBefore)
	}
}
