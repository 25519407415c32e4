package asof

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/wal"
)

// The tests in this file take as-of reads through the tree shapes the
// insertion-point split and the leaf free produce: a split that moves no
// row, a split at the boundary between two runs, and a leaf that is unlinked,
// freed and handed to another table.

var smoBody = strings.Repeat("B", 400) // ~19 rows to a leaf

func insertRange(tx *engine.Txn, table string, from, to int) error {
	for i := from; i < to; i++ {
		if err := tx.Insert(table, testRow(i, smoBody, i)); err != nil {
			return err
		}
	}
	return nil
}

func deleteRange(tx *engine.Txn, table string, from, to int) error {
	for i := from; i < to; i++ {
		if err := tx.Delete(table, row.Row{row.Int64(int64(i))}); err != nil {
			return err
		}
	}
	return nil
}

func liveDigest(t *testing.T, db *engine.DB) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	exec(t, db, func(tx *engine.Txn) error {
		return tx.Scan("t", nil, nil, func(r row.Row) bool {
			got[r[0].Int] = fmt.Sprintf("%s|%d", r[1].Str, r[2].Int)
			return true
		})
	})
	return got
}

func snapDigest(t *testing.T, s *Snapshot) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	if err := s.Scan("t", nil, nil, func(r row.Row) bool {
		got[r[0].Int] = fmt.Sprintf("%s|%d", r[1].Str, r[2].Int)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameDigest(t *testing.T, what string, got, want map[int64]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("%s: row %d = %.20q, want %.20q", what, id, got[id], v)
		}
	}
}

func metric(db *engine.DB, name string) float64 { return db.Obs().Snapshot()[name] }

// smoRecs is one structure modification in the log: its flagged records
// followed by the dummy CLR that closes it, and what it did.
type smoRecs struct {
	lsns                 []wal.LSN
	allocs, moves, frees int
}

func smosOf(t *testing.T, db *engine.DB, txnID uint64) []smoRecs {
	t.Helper()
	var out []smoRecs
	var cur *smoRecs
	err := db.Log().Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.TxnID != txnID {
			return true, nil
		}
		switch {
		case rec.Flags&wal.FlagNTA != 0 && rec.Type != wal.TypeCLR:
			if cur == nil {
				cur = &smoRecs{}
			}
			cur.lsns = append(cur.lsns, rec.LSN)
			switch rec.Type {
			case wal.TypeFormat:
				cur.allocs++
			case wal.TypeDelete:
				cur.moves++
			case wal.TypeAllocBits:
				if rec.NewData[0] < rec.OldData[0] {
					cur.frees++
				}
			}
		case rec.Type == wal.TypeCLR && rec.PageID == wal.NoPage && cur != nil:
			cur.lsns = append(cur.lsns, rec.LSN)
			out = append(out, *cur)
			cur = nil
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRewindThroughPointSplitsAndFrees walks a table through zero-move
// splits, a run-boundary split and leaf frees, recording the live content at
// every step, then rewinds leaf and parent pages to each step.
func TestRewindThroughPointSplitsAndFrees(t *testing.T) {
	// The subtest keeps the name the test floor lists this case by.
	t.Run("streams=1", rewindThroughPointSplitsAndFrees)
}

func rewindThroughPointSplitsAndFrees(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })

	type mark struct {
		at   time.Time
		want map[int64]string
	}
	var marks []mark
	step := func(fn func(tx *engine.Txn) error) {
		exec(t, db, fn)
		clock.Advance(time.Second)
		marks = append(marks, mark{clock.Now(), liveDigest(t, db)})
		clock.Advance(time.Second)
	}
	// A short run far to the right, then the run that grows into it.
	step(func(tx *engine.Txn) error { return insertRange(tx, "t", 1000, 1006) })
	for from := 0; from < 160; from += 8 {
		step(func(tx *engine.Txn) error { return insertRange(tx, "t", from, from+8) })
	}
	if metric(db, `btree_splits_total{kind="point"}`) < 6 {
		t.Fatalf("history has %v insertion-point splits", metric(db, `btree_splits_total{kind="point"}`))
	}
	// Delivery-style deletes from the old end free whole leaves.
	for from := 0; from < 120; from += 10 {
		step(func(tx *engine.Txn) error { return deleteRange(tx, "t", from, from+10) })
	}
	if metric(db, "btree_leaf_frees_total") < 4 {
		t.Fatalf("history freed %v leaves", metric(db, "btree_leaf_frees_total"))
	}
	// The run goes on, into pages the frees gave back.
	for from := 160; from < 240; from += 8 {
		step(func(tx *engine.Txn) error { return insertRange(tx, "t", from, from+8) })
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	for i, m := range marks {
		s, err := CreateSnapshot(db, m.at, nil)
		if err != nil {
			t.Fatalf("mark %d: %v", i, err)
		}
		sameDigest(t, fmt.Sprintf("mark %d", i), snapDigest(t, s), m.want)
		s.Close()
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitLSNInsidePointSplitAndFree puts the SplitLSN on every record of a
// zero-move split, a run-boundary split and a leaf free that an in-flight
// transaction performed. The snapshot — and a restore to the same LSN — must
// take the half-done modification back physically and show the committed
// rows only.
func TestSplitLSNInsidePointSplitAndFree(t *testing.T) {
	for _, shape := range []struct {
		name string
		base func(tx *engine.Txn) error
		work func(tx *engine.Txn) error
		want func(s smoRecs) bool
	}{
		{
			name: "zero-move split",
			base: func(tx *engine.Txn) error { return insertRange(tx, "t", 0, 100) },
			work: func(tx *engine.Txn) error { return insertRange(tx, "t", 100, 140) },
			want: func(s smoRecs) bool { return s.allocs == 1 && s.moves == 0 },
		},
		{
			name: "run-boundary split",
			base: func(tx *engine.Txn) error {
				if err := insertRange(tx, "t", 1000, 1006); err != nil {
					return err
				}
				return insertRange(tx, "t", 0, 20)
			},
			work: func(tx *engine.Txn) error { return insertRange(tx, "t", 20, 60) },
			want: func(s smoRecs) bool { return s.allocs == 1 && s.moves > 0 && s.moves <= 6 },
		},
		{
			name: "leaf free",
			base: func(tx *engine.Txn) error { return insertRange(tx, "t", 0, 100) },
			work: func(tx *engine.Txn) error { return deleteRange(tx, "t", 0, 60) },
			want: func(s smoRecs) bool { return s.frees == 1 },
		},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db := openDB(t, newVClock(), engine.Options{})
			exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
			exec(t, db, shape.base)
			committed := liveDigest(t, db)
			manifest, err := backup.Full(db, filepath.Join(db.Dir(), "smo.bak"), nil)
			if err != nil {
				t.Fatal(err)
			}

			inflight, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := shape.work(inflight); err != nil {
				t.Fatal(err)
			}
			var target *smoRecs
			smos := smosOf(t, db, inflight.ID())
			for i := range smos {
				if shape.want(smos[i]) {
					target = &smos[i]
					break
				}
			}
			if target == nil {
				t.Fatalf("no such structure modification among %+v", smos)
			}

			for i, split := range target.lsns {
				s, err := CreateSnapshotAtLSN(db, split, nil)
				if err != nil {
					t.Fatalf("record %d (%v): %v", i, split, err)
				}
				if err := s.WaitUndo(); err != nil {
					t.Fatalf("record %d (%v): background undo: %v", i, split, err)
				}
				sameDigest(t, fmt.Sprintf("snapshot at record %d", i), snapDigest(t, s), committed)
				s.Close()

				rst, err := backup.RestoreToLSN(manifest, db.Log(), split,
					filepath.Join(t.TempDir(), "r.db"), nil)
				if err != nil {
					t.Fatalf("record %d restore: %v", i, err)
				}
				n, err := rst.CountRows("t", nil, nil)
				rst.Close()
				if err != nil || n != len(committed) {
					t.Fatalf("record %d: restored rows = %d, %v; want %d", i, n, err, len(committed))
				}
			}
			if err := inflight.Rollback(); err != nil {
				t.Fatal(err)
			}
			sameDigest(t, "primary after rollback", liveDigest(t, db), committed)
			if _, err := db.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotAcrossFreedAndReusedLeaf mounts a snapshot while a leaf is
// still part of its table, lets the table free the leaf and another table
// take the page, and only then reads: the preformat record logged at the
// re-allocation carries the walk back into the first table's chain.
func TestSnapshotAcrossFreedAndReusedLeaf(t *testing.T) {
	// The subtest keeps the name the test floor lists this case by.
	t.Run("streams=1", snapshotAcrossFreedAndReusedLeaf)
}

func snapshotAcrossFreedAndReusedLeaf(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "t", 0, 200) })
	before := liveDigest(t, db)
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	early, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()

	exec(t, db, func(tx *engine.Txn) error { return deleteRange(tx, "t", 0, 150) })
	freed := metric(db, "btree_leaf_frees_total")
	if freed < 5 {
		t.Fatalf("deletes freed %v leaves", freed)
	}
	between := clock.Advance(time.Minute)
	afterFree := liveDigest(t, db)
	clock.Advance(time.Minute)

	reuseFrom := db.Log().NextLSN()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("u")) })
	exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "u", 0, 200) })
	preformats := 0
	if err := db.Log().Scan(reuseFrom, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypePreformat {
			preformats++
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if preformats < int(freed) {
		t.Fatalf("table u re-allocated %d pages, t had freed %v", preformats, freed)
	}

	// Mounted before the free, read after the reuse.
	sameDigest(t, "snapshot mounted before the free", snapDigest(t, early), before)
	if _, err := early.Table("u"); err == nil {
		t.Fatal("table u is visible before it was created")
	}
	// Mounted after the reuse, at both instants.
	for _, tc := range []struct {
		name string
		at   time.Time
		want map[int64]string
	}{{"before the free", past, before}, {"between free and reuse", between, afterFree}} {
		s, err := CreateSnapshot(db, tc.at, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameDigest(t, "snapshot "+tc.name, snapDigest(t, s), tc.want)
		s.Close()
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
