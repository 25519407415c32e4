package asof

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/wal"
)

// vclock is a controllable wall clock for deterministic "N minutes back".
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

func openDB(t *testing.T, clock *vclock, opts engine.Options) *engine.DB {
	t.Helper()
	if clock != nil {
		opts.Clock = clock
	}
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
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

func snapCount(t *testing.T, s *Snapshot, table string) int {
	t.Helper()
	n, err := s.CountRows(table, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSnapshotSeesPastNotPresent(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", testRow(i, "v1", i)); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	// Mutate after the target time: update some rows, delete others, add new.
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 25; i++ {
			if err := tx.Update("t", testRow(i, "v2", i*100)); err != nil {
				return err
			}
		}
		for i := 25; i < 30; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				return err
			}
		}
		for i := 50; i < 60; i++ {
			if err := tx.Insert("t", testRow(i, "new", i)); err != nil {
				return err
			}
		}
		return nil
	})

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if n := snapCount(t, s, "t"); n != 50 {
		t.Fatalf("as-of count = %d, want 50", n)
	}
	r, ok, err := s.Get("t", row.Row{row.Int64(10)})
	if err != nil || !ok {
		t.Fatalf("as-of get: ok=%v err=%v", ok, err)
	}
	if r[1].Str != "v1" || r[2].Int != 10 {
		t.Fatalf("as-of row = %v, want v1", r)
	}
	if _, ok, _ := s.Get("t", row.Row{row.Int64(55)}); ok {
		t.Fatal("as-of snapshot sees a future row")
	}
	// Deleted-after-split rows are visible as of the past.
	if r, ok, _ := s.Get("t", row.Row{row.Int64(27)}); !ok || r[1].Str != "v1" {
		t.Fatalf("row deleted after split not visible as-of: ok=%v", ok)
	}
	// The primary still sees the present.
	exec(t, db, func(tx *engine.Txn) error {
		r, _, err := tx.Get("t", row.Row{row.Int64(10)})
		if err != nil {
			return err
		}
		if r[1].Str != "v2" {
			return fmt.Errorf("primary row = %v, want v2", r)
		}
		return nil
	})
}

func TestOnlyTouchedPagesMaterialize(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 3000; i++ {
			if err := tx.Insert("t", testRow(i, "padpadpadpadpadpadpadpad", i)); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(0, "poke", 0)) })

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok, err := s.Get("t", row.Row{row.Int64(1500)}); !ok || err != nil {
		t.Fatalf("point read: ok=%v err=%v", ok, err)
	}
	// A point read touches catalog pages + a root-to-leaf path, not the
	// whole table (which spans dozens of pages).
	if got := s.SidePages(); got > 15 {
		t.Fatalf("point read materialized %d pages — not proportional to data accessed", got)
	}
}

func TestSplitLSNPicksRightCommit(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })

	type mark struct {
		at  time.Time
		val string
	}
	var marks []mark
	for i := 0; i < 5; i++ {
		val := fmt.Sprintf("gen-%d", i)
		exec(t, db, func(tx *engine.Txn) error {
			if i == 0 {
				return tx.Insert("t", testRow(1, val, i))
			}
			return tx.Update("t", testRow(1, val, i))
		})
		marks = append(marks, mark{at: clock.Now(), val: val})
		clock.Advance(10 * time.Minute)
		if i == 2 {
			if err := db.Checkpoint(); err != nil { // exercise ckpt narrowing
				t.Fatal(err)
			}
		}
	}
	for i, m := range marks {
		// A snapshot just after each commit must see exactly that value.
		s, err := CreateSnapshot(db, m.at.Add(time.Minute), nil)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		r, ok, err := s.Get("t", row.Row{row.Int64(1)})
		if err != nil || !ok {
			t.Fatalf("snapshot %d get: ok=%v err=%v", i, ok, err)
		}
		if r[1].Str != m.val {
			t.Fatalf("snapshot %d sees %q, want %q", i, r[1].Str, m.val)
		}
		s.Close()
	}
}

// TestSplitAtCheckpointStampedWithTheTarget: a checkpoint taken in the same
// clock reading as the last commit before the target (as the commit path's
// auto-checkpoint is) is the newest one at or before the target by time, yet
// it begins after the SplitLSN — its ATT, captured past the split, cannot
// seed analysis. A transaction in flight at the split must still be found
// and undone.
func TestSplitAtCheckpointStampedWithTheTarget(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "committed", 1)) })
	clock.Advance(time.Minute)
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := inflight.Update("t", testRow(1, "uncommitted", 2)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(2, "other", 3)) })
	if err := db.Checkpoint(); err != nil { // same clock reading as that commit
		t.Fatal(err)
	}
	s, err := CreateSnapshot(db, clock.Now().Add(time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Point().ATT) != 1 || s.Point().ATT[0].TxnID != inflight.ID() {
		t.Fatalf("in flight at the split: %+v, want transaction %d", s.Point().ATT, inflight.ID())
	}
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	r, ok, err := s.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok || r[1].Str != "committed" {
		t.Fatalf("row 1 as of the split: %v ok=%v err=%v, want the committed version", r, ok, err)
	}
	if err := inflight.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestDropTableRecoveryWalkthrough(t *testing.T) {
	// The §1 scenario: a table is dropped by mistake; mount a snapshot as
	// of a time when it existed, read its schema from the as-of catalog,
	// recreate it, and reconcile with INSERT...SELECT.
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("customers")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 500; i++ {
			if err := tx.Insert("customers", testRow(i, fmt.Sprintf("cust-%d", i), i)); err != nil {
				return err
			}
		}
		return nil
	})
	beforeDrop := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	exec(t, db, func(tx *engine.Txn) error { return tx.DropTable("customers") })

	// Force page reuse so the recovery must cross preformat records.
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("squatter")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 500; i++ {
			if err := tx.Insert("squatter", testRow(i, "occupying reused pages", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// Step 1: mount the snapshot and check the metadata (the paper notes
	// these iterations cost only metadata unwinding).
	s, err := CreateSnapshot(db, beforeDrop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, err := s.Table("customers")
	if err != nil {
		t.Fatalf("dropped table not in as-of catalog: %v", err)
	}
	cols, err := s.Columns(tbl.ID)
	if err != nil || len(cols) != 3 {
		t.Fatalf("as-of columns: %v %v", cols, err)
	}

	// Step 2: recreate the table in the current database and reconcile.
	exec(t, db, func(tx *engine.Txn) error {
		return tx.CreateTable(tbl.Schema)
	})
	recovered := 0
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	err = s.Scan("customers", nil, nil, func(r row.Row) bool {
		if err := tx.Insert("customers", r); err != nil {
			t.Errorf("reconcile insert: %v", err)
			return false
		}
		recovered++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if recovered != 500 {
		t.Fatalf("recovered %d rows, want 500", recovered)
	}
	exec(t, db, func(tx *engine.Txn) error {
		r, ok, err := tx.Get("customers", row.Row{row.Int64(123)})
		if err != nil || !ok {
			return fmt.Errorf("recovered row missing: ok=%v err=%v", ok, err)
		}
		if r[1].Str != "cust-123" {
			return fmt.Errorf("recovered row = %v", r)
		}
		return nil
	})
}

func TestInFlightTransactionUndoneOnSnapshot(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("t", testRow(i, "committed", i)); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(time.Minute)

	// An in-flight transaction mutates rows and hangs (uncommitted).
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := inflight.Update("t", testRow(3, "uncommitted", 999)); err != nil {
		t.Fatal(err)
	}
	if err := inflight.Insert("t", testRow(100, "uncommitted-insert", 1)); err != nil {
		t.Fatal(err)
	}
	if err := inflight.Delete("t", row.Row{row.Int64(7)}); err != nil {
		t.Fatal(err)
	}

	// Snapshot at the current end of log: the transaction is in flight at
	// the SplitLSN and must be undone on the snapshot.
	split := db.Log().NextLSN() - 1
	s, err := CreateSnapshotAtLSN(db, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Point().ATT) != 1 {
		t.Fatalf("ATT = %+v, want the in-flight txn", s.Point().ATT)
	}

	// Point read of a locked row blocks until undo releases it, then sees
	// the pre-transaction value.
	r, ok, err := s.Get("t", row.Row{row.Int64(3)})
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if r[1].Str != "committed" {
		t.Fatalf("snapshot sees uncommitted data: %v", r)
	}
	if _, ok, _ := s.Get("t", row.Row{row.Int64(100)}); ok {
		t.Fatal("snapshot sees uncommitted insert")
	}
	if r, ok, _ := s.Get("t", row.Row{row.Int64(7)}); !ok || r[1].Str != "committed" {
		t.Fatal("snapshot missing row deleted by in-flight txn")
	}
	if n := snapCount(t, s, "t"); n != 10 {
		t.Fatalf("as-of count = %d, want 10", n)
	}

	// The in-flight transaction itself is untouched on the primary.
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		r, _, err := tx.Get("t", row.Row{row.Int64(3)})
		if err != nil {
			return err
		}
		if r[1].Str != "uncommitted" {
			return fmt.Errorf("primary lost the committed change: %v", r)
		}
		return nil
	})
}

func TestSnapshotAcrossRollbackUsesCLRUndoInfo(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "before", 1)) })
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	// A transaction mutates and rolls back, generating CLRs (which carry
	// undo info, §4.2 extension 2).
	tx, _ := db.Begin()
	if err := tx.Update("t", testRow(1, "doomed", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// More committed changes after the rollback.
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "after", 3)) })

	// Rewinding to `past` must cross the CLRs physically.
	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, ok, err := s.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok {
		t.Fatalf("get across rollback: ok=%v err=%v", ok, err)
	}
	if r[1].Str != "before" {
		t.Fatalf("as-of row = %v, want before", r)
	}
}

func TestRetentionEnforced(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{Retention: time.Hour})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	tooOld := clock.Now().Add(-2 * time.Hour)
	if _, err := CreateSnapshot(db, tooOld, nil); !errors.Is(err, ErrBeyondRetention) {
		t.Fatalf("beyond-retention snapshot: %v", err)
	}
}

func TestImageFastPathReducesUndoWork(t *testing.T) {
	run := func(imageEvery int) (int64, int64) {
		clock := newVClock()
		opts := engine.Options{PageImageEvery: imageEvery}
		opts.Clock = clock
		db, err := engine.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
		exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "v", 0)) })
		past := clock.Advance(time.Minute)
		clock.Advance(time.Minute)
		// Hammer one row: long per-page chain.
		for i := 0; i < 400; i++ {
			exec(t, db, func(tx *engine.Txn) error {
				return tx.Update("t", testRow(1, fmt.Sprintf("v%d", i), i))
			})
		}
		s, err := CreateSnapshot(db, past, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if r, ok, _ := s.Get("t", row.Row{row.Int64(1)}); !ok || r[1].Str != "v" {
			t.Fatalf("imageEvery=%d: wrong as-of row %v ok=%v", imageEvery, r, ok)
		}
		return s.Stats().RecordsUndone.Load(), s.Stats().ImageRestores.Load()
	}
	undoneNoImg, restoresNoImg := run(0)
	undoneImg, restoresImg := run(20)
	if restoresNoImg != 0 {
		t.Fatalf("image restores without images: %d", restoresNoImg)
	}
	if restoresImg == 0 {
		t.Fatal("image fast path never used with PageImageEvery=20")
	}
	if undoneImg*4 > undoneNoImg {
		t.Fatalf("images did not reduce undo work: %d vs %d records", undoneImg, undoneNoImg)
	}
}

func TestQuickSnapshotMatchesRecordedHistory(t *testing.T) {
	// Drive random committed transactions; record the full table contents
	// at several LSN points; snapshots at those LSNs must reproduce them.
	clock := newVClock()
	db := openDB(t, clock, engine.Options{PageImageEvery: 50})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })

	rng := rand.New(rand.NewSource(7))
	type snapPoint struct {
		lsn      wal.LSN
		contents map[int64]string
	}
	var points []snapPoint
	live := make(map[int64]string)

	for step := 0; step < 60; step++ {
		exec(t, db, func(tx *engine.Txn) error {
			for op := 0; op < 5; op++ {
				id := int64(rng.Intn(40))
				val := fmt.Sprintf("s%d-o%d", step, op)
				if _, exists := live[id]; exists {
					if rng.Intn(3) == 0 {
						if err := tx.Delete("t", row.Row{row.Int64(id)}); err != nil {
							return err
						}
						delete(live, id)
					} else {
						if err := tx.Update("t", testRow(int(id), val, op)); err != nil {
							return err
						}
						live[id] = val
					}
				} else {
					if err := tx.Insert("t", testRow(int(id), val, op)); err != nil {
						return err
					}
					live[id] = val
				}
			}
			return nil
		})
		clock.Advance(time.Second)
		if step%10 == 9 {
			snap := make(map[int64]string, len(live))
			for k, v := range live {
				snap[k] = v
			}
			points = append(points, snapPoint{lsn: db.Log().NextLSN() - 1, contents: snap})
			if step == 29 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for i, pt := range points {
		s, err := CreateSnapshotAtLSN(db, pt.lsn, nil)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		got := make(map[int64]string)
		err = s.Scan("t", nil, nil, func(r row.Row) bool {
			got[r[0].Int] = r[1].Str
			return true
		})
		if err != nil {
			t.Fatalf("point %d scan: %v", i, err)
		}
		if len(got) != len(pt.contents) {
			t.Fatalf("point %d: %d rows, want %d", i, len(got), len(pt.contents))
		}
		for k, v := range pt.contents {
			if got[k] != v {
				t.Fatalf("point %d: row %d = %q, want %q", i, k, got[k], v)
			}
		}
		s.Close()
	}
}

func TestSnapshotIsolationFromConcurrentWrites(t *testing.T) {
	// Queries on a snapshot stay correct while the primary keeps writing:
	// the pages read from the primary grow longer chains, undone on access.
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("t", testRow(i, "frozen", i)); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tx, err := db.Begin()
			if err != nil {
				return
			}
			_ = tx.Update("t", testRow(i%200, fmt.Sprintf("hot-%d", i), i))
			_ = tx.Commit()
		}
	}()

	for round := 0; round < 20; round++ {
		id := int64(round * 10)
		r, ok, err := s.Get("t", row.Row{row.Int64(id)})
		if err != nil || !ok {
			t.Errorf("round %d: ok=%v err=%v", round, ok, err)
			break
		}
		if r[1].Str != "frozen" {
			t.Errorf("round %d: snapshot saw concurrent write: %v", round, r)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestRewindAcrossDropAndReuse: a dropped table's pages go to the next
// table, and a snapshot as of before the drop still reads every original
// row — the preformat record logged at each re-allocation carries the walk
// back into the dropped table's chain (§4.2 extension 1).
func TestRewindAcrossDropAndReuse(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("a")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("a", testRow(i, "original-table", i)); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.DropTable("a") })
	reuseFrom := db.Log().NextLSN()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("b")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("b", testRow(i, "squatting on reused pages", i)); err != nil {
				return err
			}
		}
		return nil
	})
	preformats := 0
	if err := db.Log().Scan(reuseFrom, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypePreformat {
			preformats++
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if preformats == 0 {
		t.Fatal("no page of the dropped table was reused: the layout no longer crosses a re-allocation")
	}

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := 0
	err = s.Scan("a", nil, nil, func(r row.Row) bool {
		if r[1].Str != "original-table" {
			t.Fatalf("wrong data: %v", r)
		}
		rows++
		return true
	})
	if err != nil || rows != 300 {
		t.Fatalf("as-of scan of the dropped table: %d rows, err %v; want 300", rows, err)
	}
}

func TestSnapshotIndexTimeTravel(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	beforeIndex := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	exec(t, db, func(tx *engine.Txn) error { return tx.CreateIndex("by_body", "t", "body") })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 30; i++ {
			if err := tx.Insert("t", testRow(i, "old", i)); err != nil {
				return err
			}
		}
		return nil
	})
	beforeMove := clock.Advance(time.Minute)
	clock.Advance(time.Minute)

	// Move half the rows to a new category after the snapshot target.
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 15; i++ {
			if err := tx.Update("t", testRow(i, "new", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// As of beforeMove: the index still maps all 30 rows to "old".
	s, err := CreateSnapshot(db, beforeMove, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := func(val string) int {
		n := 0
		if err := s.ScanIndex("by_body", row.Row{row.String(val)}, func(row.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatalf("ScanIndex(%q): %v", val, err)
		}
		return n
	}
	if got := count("old"); got != 30 {
		t.Fatalf("as-of old = %d, want 30", got)
	}
	if got := count("new"); got != 0 {
		t.Fatalf("as-of new = %d, want 0", got)
	}

	// As of beforeIndex: the index did not exist yet — the as-of catalog
	// must say so.
	s2, err := CreateSnapshot(db, beforeIndex, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.ScanIndex("by_body", row.Row{row.String("old")}, func(row.Row) bool { return true }); err == nil {
		t.Fatal("index visible before it was created")
	}
}
