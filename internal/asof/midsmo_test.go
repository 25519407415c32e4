package asof

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/wal"
)

// TestSplitLSNInsideSMO reproduces the bug the Figure-7 benchmark exposed:
// a SplitLSN landing between a B-Tree split's move records and its
// terminating dummy CLR. Those records carry wal.FlagNTA and must be undone
// physically; logical undo would try to "delete" an internal separator and
// fail (or worse, corrupt the as-of view).
func TestSplitLSNInsideSMO(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", testRow(i, "committed", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// Baseline backup for the restore-side check, taken before the SMO.
	manifest, err := backup.Full(db, filepath.Join(db.Dir(), "midsmo.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// An in-flight transaction inserts bulky rows until it forces splits.
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("P", 400)
	for i := 1000; i < 1120; i++ {
		if err := inflight.Insert("t", testRow(i, pad, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Locate the in-flight transaction's NTA records and its dummy CLRs.
	var flagged []wal.LSN
	var dummies []wal.LSN
	if err := db.Log().Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.TxnID != inflight.ID() {
			return true, nil
		}
		if rec.Flags&wal.FlagNTA != 0 && rec.Type != wal.TypeCLR {
			flagged = append(flagged, rec.LSN)
		}
		if rec.Type == wal.TypeCLR && rec.PageID == wal.NoPage {
			dummies = append(dummies, rec.LSN)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(flagged) == 0 || len(dummies) == 0 {
		t.Fatalf("workload produced no SMO: flagged=%d dummies=%d", len(flagged), len(dummies))
	}

	// Split points strictly inside the first SMO: after its first, a middle,
	// and its last flagged record (all before the dummy CLR).
	var inside []wal.LSN
	for _, f := range flagged {
		if f < dummies[0] {
			inside = append(inside, f)
		}
	}
	if len(inside) == 0 {
		t.Fatal("no flagged records before the first dummy CLR")
	}
	candidates := []wal.LSN{inside[0], inside[len(inside)/2], inside[len(inside)-1]}

	for i, split := range candidates {
		s, err := CreateSnapshotAtLSN(db, split, nil)
		if err != nil {
			t.Fatalf("candidate %d (lsn %v): %v", i, split, err)
		}
		if err := s.WaitUndo(); err != nil {
			t.Fatalf("candidate %d (lsn %v): background undo: %v", i, split, err)
		}
		n, err := s.CountRows("t", nil, nil)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		if n != 100 {
			t.Fatalf("candidate %d: as-of rows = %d, want 100 (uncommitted mid-SMO state leaked)", i, n)
		}
		for _, id := range []int{0, 50, 99} {
			r, ok, err := s.Get("t", testRow(id, "", 0)[:1])
			if err != nil || !ok || r[1].Str != "committed" {
				t.Fatalf("candidate %d row %d: %v ok=%v err=%v", i, id, r, ok, err)
			}
		}
		s.Close()

		// The restore baseline must handle the same target identically.
		rst, err := backup.RestoreToLSN(manifest, db.Log(), split,
			filepath.Join(t.TempDir(), fmt.Sprintf("r%d.db", i)), nil)
		if err != nil {
			t.Fatalf("candidate %d restore: %v", i, err)
		}
		rn, err := rst.CountRows("t", nil, nil)
		if err != nil {
			t.Fatalf("candidate %d restore count: %v", i, err)
		}
		if rn != 100 {
			t.Fatalf("candidate %d: restored rows = %d, want 100", i, rn)
		}
		rst.Close()
	}
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
	// The primary is untouched by all that time travel.
	exec(t, db, func(tx *engine.Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 220 {
			return fmt.Errorf("primary rows = %d, want 220", n)
		}
		return nil
	})
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMountWithoutCheckpoint: a mount on a primary takes no checkpoint — it
// reads the primary's pages through its buffer pool, dirty or not — and
// answers exactly what a mount after a flush-all checkpoint answers. The
// instants are committed states between batches of inserts, updates and
// deletes, and split points inside an open SMO of an in-flight transaction.
func TestMountWithoutCheckpoint(t *testing.T) {
	sync, err := wal.ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	clock := newVClock()
	db := openDB(t, clock, engine.Options{SyncPolicy: sync})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	var instants []time.Time
	for b := 0; b < 6; b++ {
		exec(t, db, func(tx *engine.Txn) error {
			if err := insertRange(tx, "t", b*40, b*40+40); err != nil {
				return err
			}
			if b > 0 {
				if err := tx.Update("t", testRow(b*40-7, "updated", b)); err != nil {
					return err
				}
				return deleteRange(tx, "t", b*40-20, b*40-10)
			}
			return nil
		})
		clock.Advance(time.Second)
		instants = append(instants, clock.Now())
		clock.Advance(time.Second)
	}
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRange(inflight, "t", 1000, 1120); err != nil {
		t.Fatal(err)
	}
	var inside []wal.LSN // flagged SMO records before the SMO's dummy CLR
	if err := db.Log().Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.TxnID == inflight.ID() {
			if rec.Type == wal.TypeCLR && rec.PageID == wal.NoPage {
				return false, nil
			}
			if rec.Flags&wal.FlagNTA != 0 {
				inside = append(inside, rec.LSN)
			}
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(inside) == 0 {
		t.Fatal("the in-flight transaction opened no SMO")
	}
	splits := []wal.LSN{inside[0], inside[len(inside)/2], inside[len(inside)-1]}

	mountAll := func() []map[int64]string {
		var out []map[int64]string
		mount := func(s *Snapshot, err error) {
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.WaitUndo(); err != nil {
				t.Fatal(err)
			}
			out = append(out, snapDigest(t, s))
		}
		for _, at := range instants {
			mount(CreateSnapshot(db, at, nil))
		}
		for _, split := range splits {
			mount(CreateSnapshotAtLSN(db, split, nil))
		}
		return out
	}
	ckpts := db.CheckpointCount.Load()
	without := mountAll()
	if n := db.CheckpointCount.Load() - ckpts; n != 0 {
		t.Fatalf("mounting took %d checkpoints, want none", n)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	with := mountAll()
	for i := range with {
		sameDigest(t, fmt.Sprintf("mount %d", i), without[i], with[i])
	}
	if got := len(with[len(instants)-1]); got != 6*40-5*10 {
		t.Fatalf("last committed instant has %d rows, want %d", got, 6*40-5*10)
	}
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
}
