package asofdb

// Tests of the public facade: everything a downstream user would touch,
// exercised through the exported API only.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vclock"
)

func apiSchema(name string) *Schema {
	return &Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Kind: KindInt64},
			{Name: "note", Kind: KindString},
			{Name: "score", Kind: KindFloat64},
		},
		KeyCols: 1,
	}
}

func apiRow(id int, note string, score float64) Row {
	return Row{Int64(int64(id)), String(note), Float64(score)}
}

func apiDB(t *testing.T) (*DB, *vclock.Clock) {
	t.Helper()
	clock := vclock.New(time.Time{})
	db, err := Open(t.TempDir(), Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, clock
}

func apiExec(t *testing.T, db *DB, fn func(tx *Txn) error) {
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

func TestPublicAPICrudAndSnapshot(t *testing.T) {
	db, clock := apiDB(t)
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("things")) })
	apiExec(t, db, func(tx *Txn) error {
		for i := 0; i < 30; i++ {
			if err := tx.Insert("things", apiRow(i, "v1", float64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	apiExec(t, db, func(tx *Txn) error { return tx.Update("things", apiRow(7, "v2", 7.7)) })

	snap, err := SnapshotAsOf(db, past)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	r, ok, err := snap.Get("things", Row{Int64(7)})
	if err != nil || !ok || r[1].Str != "v1" {
		t.Fatalf("snapshot get: %v ok=%v err=%v", r, ok, err)
	}
	n, err := snap.CountRows("things", nil, nil)
	if err != nil || n != 30 {
		t.Fatalf("snapshot count = %d err=%v", n, err)
	}
}

func TestPublicAPISnapshotAtLSN(t *testing.T) {
	db, _ := apiDB(t)
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("t")) })
	apiExec(t, db, func(tx *Txn) error { return tx.Insert("t", apiRow(1, "then", 0)) })
	lsn := db.Log().NextLSN() - 1
	apiExec(t, db, func(tx *Txn) error { return tx.Update("t", apiRow(1, "now", 0)) })

	snap, err := SnapshotAtLSN(db, lsn)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	r, _, err := snap.Get("t", Row{Int64(1)})
	if err != nil || r[1].Str != "then" {
		t.Fatalf("lsn snapshot: %v err=%v", r, err)
	}
}

func TestPublicAPIRetentionError(t *testing.T) {
	db, clock := apiDB(t)
	db.SetRetention(time.Hour)
	_, err := SnapshotAsOf(db, clock.Now().Add(-2*time.Hour))
	if !errors.Is(err, ErrBeyondRetention) {
		t.Fatalf("err = %v, want ErrBeyondRetention", err)
	}
}

func TestPublicAPIBackupRestore(t *testing.T) {
	db, clock := apiDB(t)
	dir := t.TempDir()
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("t")) })
	apiExec(t, db, func(tx *Txn) error { return tx.Insert("t", apiRow(1, "backed-up", 0)) })

	m, err := BackupFull(db, filepath.Join(dir, "full.bak"))
	if err != nil {
		t.Fatal(err)
	}
	target := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	apiExec(t, db, func(tx *Txn) error { return tx.Update("t", apiRow(1, "after", 0)) })

	rst, err := RestorePointInTime(db, m, target, filepath.Join(dir, "restored.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	r, ok, err := rst.Get("t", Row{Int64(1)})
	if err != nil || !ok || r[1].Str != "backed-up" {
		t.Fatalf("restored: %v ok=%v err=%v", r, ok, err)
	}
}

func TestPublicAPIUndoTransaction(t *testing.T) {
	db, clock := apiDB(t)
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("t")) })
	apiExec(t, db, func(tx *Txn) error { return tx.Insert("t", apiRow(1, "good", 0)) })

	clock.Advance(time.Second)
	from := clock.Now()
	clock.Advance(time.Second)
	apiExec(t, db, func(tx *Txn) error { return tx.Update("t", apiRow(1, "bad", -1)) })
	clock.Advance(time.Second)

	commits, err := FindCommits(db, from, clock.Now())
	if err != nil || len(commits) != 1 {
		t.Fatalf("commits=%v err=%v", commits, err)
	}
	report, err := UndoTransaction(db, commits[0].CommitLSN, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.UpdatesReverted != 1 {
		t.Fatalf("report: %+v", report)
	}
	apiExec(t, db, func(tx *Txn) error {
		r, _, err := tx.Get("t", Row{Int64(1)})
		if err != nil || r[1].Str != "good" {
			return fmt.Errorf("undo result: %v err=%v", r, err)
		}
		return nil
	})
}

func TestPublicAPIDroppedTableRecovery(t *testing.T) {
	// The README / doc-comment walkthrough, end to end on the facade.
	db, clock := apiDB(t)
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("customers")) })
	apiExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("customers", apiRow(i, "keep-me", 1)); err != nil {
				return err
			}
		}
		return nil
	})
	before := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	apiExec(t, db, func(tx *Txn) error { return tx.DropTable("customers") })

	snap, err := SnapshotAsOf(db, before)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	tbl, err := snap.Table("customers")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateTable(tbl.Schema); err != nil {
		t.Fatal(err)
	}
	var insErr error
	recovered := 0
	err = snap.Scan("customers", nil, nil, func(r Row) bool {
		if insErr = tx.Insert("customers", r); insErr != nil {
			return false
		}
		recovered++
		return true
	})
	if err != nil || insErr != nil {
		t.Fatal(err, insErr)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if recovered != 100 {
		t.Fatalf("recovered %d rows", recovered)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.New(time.Time{})
	db, err := Open(dir, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	apiExec(t, db, func(tx *Txn) error { return tx.CreateTable(apiSchema("t")) })
	apiExec(t, db, func(tx *Txn) error { return tx.Insert("t", apiRow(1, "survives", 0)) })
	db.Crash()

	db2, err := Open(dir, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	apiExec(t, db2, func(tx *Txn) error {
		if _, ok, err := tx.Get("t", Row{Int64(1)}); !ok || err != nil {
			return fmt.Errorf("lost row: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

func TestPublicAPIValueConstructors(t *testing.T) {
	vals := Row{
		Int64(1), Float64(2.5), String("s"), Bytes([]byte{1}), Bool(true),
		Time(time.Unix(10, 0)), Null(KindString),
	}
	if vals[0].Kind != KindInt64 || vals[6].IsNull != true {
		t.Fatal("constructors broken")
	}
}
