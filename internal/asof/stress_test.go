package asof

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/wal"
)

// TestManySnapshotsAtDifferentTimes mounts snapshots at several historical
// points simultaneously and verifies each sees exactly its own frozen
// generation while writers keep mutating the primary.
func TestManySnapshotsAtDifferentTimes(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{PageImageEvery: 30})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })

	type gen struct {
		at  time.Time
		val string
	}
	var gens []gen
	for g := 0; g < 6; g++ {
		val := fmt.Sprintf("gen-%d", g)
		exec(t, db, func(tx *engine.Txn) error {
			for i := 0; i < 50; i++ {
				if g == 0 {
					if err := tx.Insert("t", testRow(i, val, g)); err != nil {
						return err
					}
				} else if err := tx.Update("t", testRow(i, val, g)); err != nil {
					return err
				}
			}
			return nil
		})
		gens = append(gens, gen{at: clock.Now(), val: val})
		clock.Advance(5 * time.Minute)
		if g == 2 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Mount all six snapshots at once.
	snaps := make([]*Snapshot, len(gens))
	for i, g := range gens {
		s, err := CreateSnapshot(db, g.at.Add(time.Second), nil)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		snaps[i] = s
		defer s.Close()
	}

	// Concurrent writers keep churning the primary while snapshot readers
	// verify their generations.
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
			_ = tx.Update("t", testRow(i%50, fmt.Sprintf("churn-%d", i), i))
			_ = tx.Commit()
		}
	}()

	var readers sync.WaitGroup
	for i := range snaps {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			s, want := snaps[i], gens[i].val
			for round := 0; round < 10; round++ {
				id := int64((round * 7) % 50)
				r, ok, err := s.Get("t", row.Row{row.Int64(id)})
				if err != nil || !ok {
					t.Errorf("snapshot %d round %d: ok=%v err=%v", i, round, ok, err)
					return
				}
				if r[1].Str != want {
					t.Errorf("snapshot %d: saw %q, want %q", i, r[1].Str, want)
					return
				}
			}
			n, err := s.CountRows("t", nil, nil)
			if err != nil || n != 50 {
				t.Errorf("snapshot %d: count=%d err=%v", i, n, err)
			}
		}(i)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestSnapshotSideFileCaching verifies §5.3d: a page prepared once is
// served from the side file afterwards, not re-prepared
// (TestGetManyWritesOnceReadsNone holds what a batch writes).
func TestSnapshotSideFileCaching(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", testRow(i, "x", i)); err != nil {
				return err
			}
		}
		return nil
	})
	past := clock.Advance(time.Minute)
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "y", 1)) })

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Get("t", row.Row{row.Int64(1)}); err != nil {
		t.Fatal(err)
	}
	prepared := s.Stats().PagesPrepared.Load()
	if prepared == 0 {
		t.Fatal("no pages prepared")
	}
	// Evict the snapshot pool so re-reads must come from the side file;
	// PagesPrepared must not grow.
	for i := 0; i < 60; i++ {
		if _, _, err := s.Get("t", row.Row{row.Int64(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Stats().PagesPrepared.Load()
	for i := 0; i < 60; i++ {
		if _, _, err := s.Get("t", row.Row{row.Int64(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().PagesPrepared.Load(); got != first {
		t.Fatalf("pages re-prepared on cached reads: %d -> %d", first, got)
	}
	if s.SidePages() == 0 {
		t.Fatal("side file empty after reads")
	}
}

// TestSnapshotOfSnapshotTimes ensures two snapshots at the same LSN are
// independent (separate side files, separate pools).
func TestSnapshotOfSnapshotTimes(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "v", 1)) })
	lsn := db.Log().NextLSN() - 1

	a, err := CreateSnapshotAtLSN(db, lsn, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateSnapshotAtLSN(db, lsn, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, _, _ := a.Get("t", row.Row{row.Int64(1)})
	rb, _, _ := b.Get("t", row.Row{row.Int64(1)})
	if ra[1].Str != "v" || rb[1].Str != "v" {
		t.Fatalf("snapshot reads: %v %v", ra, rb)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// b must survive a's close.
	if rb2, ok, err := b.Get("t", row.Row{row.Int64(1)}); err != nil || !ok || rb2[1].Str != "v" {
		t.Fatalf("b broken after a.Close: %v ok=%v err=%v", rb2, ok, err)
	}
	b.Close()
}

// TestGetBlocksUntilRowUndone verifies the §5.2 lock barrier: a point read
// of a row locked by an in-flight transaction waits for the undo rather
// than returning uncommitted data.
func TestGetBlocksUntilRowUndone(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 2000; i++ {
			if err := tx.Insert("t", testRow(i, "clean", i)); err != nil {
				return err
			}
		}
		return nil
	})
	inflight, _ := db.Begin()
	if err := inflight.Update("t", testRow(1234, "dirty", 0)); err != nil {
		t.Fatal(err)
	}
	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer inflight.Rollback()
	// Whatever the interleaving with background undo, the answer must be
	// the committed value.
	for round := 0; round < 3; round++ {
		r, ok, err := s.Get("t", row.Row{row.Int64(1234)})
		if err != nil || !ok || r[1].Str != "clean" {
			t.Fatalf("round %d: %v ok=%v err=%v", round, r, ok, err)
		}
	}
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRespectsTruncatedLog: after retention truncation, an as-of
// request whose chain walk would cross the boundary fails cleanly.
func TestSnapshotRespectsTruncatedLog(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{Retention: 10 * time.Minute})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "old", 1)) })

	// Age the history well past retention with periodic checkpoints so
	// truncation actually advances.
	for i := 0; i < 8; i++ {
		clock.Advance(5 * time.Minute)
		exec(t, db, func(tx *engine.Txn) error {
			return tx.Update("t", testRow(1, fmt.Sprintf("v%d", i), i))
		})
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Log().TruncationPoint() == wal.LSN(1) {
		t.Fatal("retention truncation never advanced")
	}
	// Recent as-of works (the last update committed at the current clock,
	// so a now-targeted snapshot sees v7).
	s, err := CreateSnapshot(db, clock.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, err := s.Get("t", row.Row{row.Int64(1)}); err != nil || !ok || r[1].Str != "v7" {
		t.Fatalf("recent as-of: %v ok=%v err=%v", r, ok, err)
	}
	s.Close()
	// Beyond retention is rejected up front.
	if _, err := CreateSnapshot(db, clock.Now().Add(-2*time.Hour), nil); err == nil {
		t.Fatal("beyond-retention snapshot accepted")
	}
}
