package engine

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

// TestRetentionReadsTheIndex: retention finds the checkpoint at its horizon
// in the checkpoint index. While every checkpoint is inside the retention
// period a checkpoint reads no log for it and cuts nothing. Once one falls
// behind the horizon, the cut lands where the old backward walk of the
// checkpoint chain put it: that checkpoint's begin, or the begin of a
// transaction still active at it.
func TestRetentionReadsTheIndex(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	opts := Options{
		SyncPolicy: testSyncPolicy(t),
		Clock:      clock.Func(func() time.Time { return now }),
		Retention:  10 * time.Minute,
	}
	db := openTestDB(t, opts)
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	long, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := long.Insert("t", testRow(1_000_000, "long", 0)); err != nil {
		t.Fatal(err)
	}
	logReads := func() float64 {
		snap := db.Obs().Snapshot()
		return snap["wal_blockcache_hits_total"] + snap["wal_blockcache_misses_total"]
	}
	for i := 0; i < 8; i++ {
		mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(i, "v", i)) })
		now = now.Add(time.Minute)
		before := logReads()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := logReads() - before; n != 0 {
			t.Fatalf("checkpoint %d, all inside retention, read the log %v times", i+1, n)
		}
	}
	if tp := db.Log().TruncationPoint(); tp != 1 {
		t.Fatalf("log truncated at %v with every checkpoint inside retention", tp)
	}
	if err := long.Commit(); err != nil {
		t.Fatal(err)
	}

	// The checkpoints are 1..8 minutes in; at 13 minutes the horizon is the
	// third, which the long transaction was active at.
	now = now.Add(5 * time.Minute)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, horizonBegin := walkedCut(t, db, now.Add(-opts.Retention).UnixNano())
	if want >= horizonBegin {
		t.Fatalf("walked cut %v is not below the horizon checkpoint's begin %v", want, horizonBegin)
	}
	if tp := db.Log().TruncationPoint(); tp != want {
		t.Fatalf("log truncated at %v, the chain walk cuts at %v", tp, want)
	}
	if got := tableDigest(t, db); len(got) != 9 {
		t.Fatalf("%d rows after the cut, want 9", len(got))
	}
}

// walkedCut is where retention used to cut, found by walking the checkpoint
// chain back from the newest checkpoint to the first one not newer than
// horizon: the smaller of that checkpoint's begin and the begins of the
// transactions active at it, held at the newest checkpoint's redo start. It
// also returns the horizon checkpoint's begin.
func walkedCut(t *testing.T, db *DB, horizon int64) (cut, begin wal.LSN) {
	t.Helper()
	redoStart := wal.NilLSN
	for cur := db.LastCheckpointEnd(); cur != wal.NilLSN; {
		rec, err := db.Log().Read(cur)
		if err != nil {
			t.Fatal(err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			t.Fatal(err)
		}
		if redoStart == wal.NilLSN {
			redoStart = data.RedoStart()
		}
		if rec.WallClock <= horizon {
			cut = data.BeginLSN
			for _, e := range data.ATT {
				if e.BeginLSN != 0 && e.BeginLSN < cut {
					cut = e.BeginLSN
				}
			}
			return min(cut, redoStart), data.BeginLSN
		}
		cur = data.PrevEnd
	}
	t.Fatal("no checkpoint behind the horizon")
	return
}
