package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/row"
)

// TestGroupCommitDurabilityAcrossCrash drives concurrent committers through
// the group-commit pipeline, crashes the engine (discarding the unflushed
// WAL tail and dirty pages, like a power failure), and verifies after
// recovery that
//
//   - every transaction whose Commit returned (was acknowledged) is fully
//     present — no lost acks, regardless of which group flush carried it;
//   - transactions that were in flight (never committed) at the crash are
//     cleanly absent;
//   - the database is physically consistent.
//
// It runs as the "default" arm, the one commit path left since the linger
// and serial-force arms were deleted.
func TestGroupCommitDurabilityAcrossCrash(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

		const committers = 8
		const perCommitter = 20
		var mu sync.Mutex
		acked := make(map[int64]string)

		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perCommitter; i++ {
					id := int64(w*1000 + i)
					v := fmt.Sprintf("w%d-i%d", w, i)
					tx, err := db.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					if err := tx.Insert("t", testRow(int(id), v, i)); err != nil {
						t.Error(err)
						tx.Rollback()
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
					// Commit returned: the transaction is acknowledged and
					// must survive any crash from here on.
					mu.Lock()
					acked[id] = v
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()

		// Leave work in flight: begun, logged, never committed.
		for w := 0; w < 3; w++ {
			hang, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := hang.Insert("t", testRow(90000+w, "inflight", w)); err != nil {
				t.Fatal(err)
			}
		}

		db.Crash()
		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer db2.Close()
		if _, err := db2.CheckConsistency(); err != nil {
			t.Fatalf("post-recovery consistency: %v", err)
		}
		got := make(map[int64]string)
		mustExec(t, db2, func(tx *Txn) error {
			return tx.Scan("t", nil, nil, func(r row.Row) bool {
				got[r[0].Int] = r[1].Str
				return true
			})
		})
		for id, v := range acked {
			if got[id] != v {
				t.Errorf("acked row %d = %q after recovery, want %q", id, got[id], v)
			}
		}
		for w := 0; w < 3; w++ {
			if v, ok := got[int64(90000+w)]; ok {
				t.Errorf("uncommitted in-flight row %d = %q survived recovery", 90000+w, v)
			}
		}
		if len(got) != len(acked) {
			t.Errorf("%d rows after recovery, want exactly the %d acknowledged", len(got), len(acked))
		}
	})
}

// TestGroupCommitConcurrentWithCheckpoints interleaves committers with
// checkpoints (which force the log through AppendFlush and write back all
// pages) to race the two flush paths against each other, then crashes and
// verifies no acknowledged commit is lost.
func TestGroupCommitConcurrentWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

	stop := make(chan struct{})
	var ckptWg sync.WaitGroup
	ckptWg.Add(1)
	go func() {
		defer ckptWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	const committers = 4
	const perCommitter = 30
	var mu sync.Mutex
	acked := make(map[int64]string)
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				id := int64(w*1000 + i)
				v := fmt.Sprintf("c%d-%d", w, i)
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Insert("t", testRow(int(id), v, i)); err != nil {
					t.Error(err)
					tx.Rollback()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[id] = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ckptWg.Wait()

	db.Crash()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := make(map[int64]string)
	mustExec(t, db2, func(tx *Txn) error {
		return tx.Scan("t", nil, nil, func(r row.Row) bool {
			got[r[0].Int] = r[1].Str
			return true
		})
	})
	for id, v := range acked {
		if got[id] != v {
			t.Errorf("acked row %d = %q after recovery, want %q", id, got[id], v)
		}
	}
}
