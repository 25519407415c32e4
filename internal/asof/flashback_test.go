package asof

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
)

func seedFlashback(t *testing.T) (*engine.DB, *vclock) {
	t.Helper()
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("t", testRow(i, "base", i)); err != nil {
				return err
			}
		}
		return nil
	})
	return db, clock
}

// mistake commits a transaction that updates row 1, deletes row 2 and
// inserts row 50, and returns its commit info.
func mistake(t *testing.T, db *engine.DB, clock *vclock) CommitInfo {
	t.Helper()
	clock.Advance(time.Second) // move past the seeding commits
	from := clock.Now()
	clock.Advance(time.Second)
	exec(t, db, func(tx *engine.Txn) error {
		if err := tx.Update("t", testRow(1, "oops", 999)); err != nil {
			return err
		}
		if err := tx.Delete("t", row.Row{row.Int64(2)}); err != nil {
			return err
		}
		return tx.Insert("t", testRow(50, "oops-insert", 1))
	})
	clock.Advance(time.Second)
	commits, err := FindCommits(db, from, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 {
		t.Fatalf("FindCommits returned %d commits, want 1: %+v", len(commits), commits)
	}
	if commits[0].Ops != 3 {
		t.Fatalf("mistake ops = %d, want 3", commits[0].Ops)
	}
	return commits[0]
}

func TestUndoTransactionRevertsAllOps(t *testing.T) {
	db, clock := seedFlashback(t)
	ci := mistake(t, db, clock)

	report, err := UndoTransaction(db, ci.CommitLSN, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.UpdatesReverted != 1 || report.DeletesRestored != 1 || report.InsertsRemoved != 1 {
		t.Fatalf("report: %+v", report)
	}

	exec(t, db, func(tx *engine.Txn) error {
		r, _, err := tx.Get("t", row.Row{row.Int64(1)})
		if err != nil || r[1].Str != "base" {
			t.Fatalf("row 1 not reverted: %v %v", r, err)
		}
		if r, ok, _ := tx.Get("t", row.Row{row.Int64(2)}); !ok || r[1].Str != "base" {
			t.Fatalf("row 2 not restored: %v ok=%v", r, ok)
		}
		if _, ok, _ := tx.Get("t", row.Row{row.Int64(50)}); ok {
			t.Fatal("inserted row 50 not removed")
		}
		return nil
	})
}

func TestUndoTransactionPreservesLaterWork(t *testing.T) {
	db, clock := seedFlashback(t)
	ci := mistake(t, db, clock)
	// Unrelated later work on other rows.
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(5, "later", 555)) })

	if _, err := UndoTransaction(db, ci.CommitLSN, false); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		r, _, err := tx.Get("t", row.Row{row.Int64(5)})
		if err != nil || r[1].Str != "later" {
			t.Fatalf("later work lost: %v %v", r, err)
		}
		return nil
	})
}

func TestUndoTransactionDetectsConflicts(t *testing.T) {
	db, clock := seedFlashback(t)
	ci := mistake(t, db, clock)
	// Conflicting later work on the same row the mistake updated.
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "conflicting", 7)) })

	_, err := UndoTransaction(db, ci.CommitLSN, false)
	if !errors.Is(err, ErrUndoConflict) {
		t.Fatalf("err = %v, want ErrUndoConflict", err)
	}
	// The failed undo must not have partially applied.
	exec(t, db, func(tx *engine.Txn) error {
		if _, ok, _ := tx.Get("t", row.Row{row.Int64(50)}); !ok {
			t.Fatal("failed undo partially applied (row 50 removed)")
		}
		return nil
	})

	// Forcing overrides the conflict.
	report, err := UndoTransaction(db, ci.CommitLSN, true)
	if err != nil {
		t.Fatal(err)
	}
	if report.UpdatesReverted != 1 {
		t.Fatalf("forced report: %+v", report)
	}
	exec(t, db, func(tx *engine.Txn) error {
		r, _, _ := tx.Get("t", row.Row{row.Int64(1)})
		if r[1].Str != "base" {
			t.Fatalf("forced undo result: %v", r)
		}
		return nil
	})
}

func TestUndoTransactionIsItselfUndoable(t *testing.T) {
	db, clock := seedFlashback(t)
	ci := mistake(t, db, clock)
	from := clock.Now()
	clock.Advance(time.Second)
	if _, err := UndoTransaction(db, ci.CommitLSN, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	// The compensating transaction is a normal commit: find and undo it,
	// re-applying the mistake.
	commits, err := FindCommits(db, from, clock.Now())
	if err != nil || len(commits) != 1 {
		t.Fatalf("commits=%v err=%v", commits, err)
	}
	if _, err := UndoTransaction(db, commits[0].CommitLSN, false); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		r, _, _ := tx.Get("t", row.Row{row.Int64(1)})
		if r[1].Str != "oops" {
			t.Fatalf("undo-of-undo should restore the mistake: %v", r)
		}
		return nil
	})
}

func TestUndoTransactionRejectsNonCommit(t *testing.T) {
	db, _ := seedFlashback(t)
	if _, err := UndoTransaction(db, 1, false); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("err = %v, want ErrNotCommitted", err)
	}
}

func TestFindCommitsWindow(t *testing.T) {
	db, clock := seedFlashback(t)
	clock.Advance(time.Second) // move past the seeding commits
	t0 := clock.Now()
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "a", 1)) })
	t1 := clock.Now()
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "b", 2)) })
	t2 := clock.Now()
	clock.Advance(time.Minute)

	all, err := FindCommits(db, t0, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("all commits = %d, want 2", len(all))
	}
	first, err := FindCommits(db, t0, t1)
	if err != nil || len(first) != 1 {
		t.Fatalf("window [t0,t1]: %v err=%v", first, err)
	}
	second, err := FindCommits(db, t1.Add(time.Second), t2)
	if err != nil || len(second) != 1 {
		t.Fatalf("window (t1,t2]: %v err=%v", second, err)
	}
	if first[0].CommitLSN >= second[0].CommitLSN {
		t.Fatal("commits not in order")
	}
}

// TestUndoTransactionComparesWholeRows pins the conflict rule now that an
// update record holds only the bytes it changed: the undone transaction
// updated row 1 twice, touching only qty, and a later transaction changed
// only body. No byte either record carries has moved since — and it is still
// a conflict, because the row is not the row the transaction left; forcing
// the undo puts back the whole row as the transaction found it.
func TestUndoTransactionComparesWholeRows(t *testing.T) {
	db, clock := seedFlashback(t)
	clock.Advance(time.Second)
	from := clock.Now()
	clock.Advance(time.Second)
	exec(t, db, func(tx *engine.Txn) error {
		if err := tx.Update("t", testRow(1, "base", 100)); err != nil {
			return err
		}
		return tx.Update("t", testRow(1, "base", 200))
	})
	clock.Advance(time.Second)
	commits, err := FindCommits(db, from, clock.Now())
	if err != nil || len(commits) != 1 || commits[0].Ops != 2 {
		t.Fatalf("FindCommits: %+v, %v", commits, err)
	}
	clock.Advance(time.Second)
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "later", 200)) })

	if _, err := UndoTransaction(db, commits[0].CommitLSN, false); !errors.Is(err, ErrUndoConflict) {
		t.Fatalf("undo across a change to another column: %v, want ErrUndoConflict", err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		if r, _, err := tx.Get("t", row.Row{row.Int64(1)}); err != nil || r[1].Str != "later" || r[2].Int != 200 {
			t.Fatalf("refused undo left row 1 = %v, %v", r, err)
		}
		return nil
	})
	report, err := UndoTransaction(db, commits[0].CommitLSN, true)
	if err != nil || report.UpdatesReverted != 2 {
		t.Fatalf("forced undo: %+v, %v", report, err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		if r, _, err := tx.Get("t", row.Row{row.Int64(1)}); err != nil || r[1].Str != "base" || r[2].Int != 1 {
			t.Fatalf("forced undo left row 1 = %v, %v; want the whole row as the transaction found it", r, err)
		}
		return nil
	})
}
