package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/row"
	"repro/internal/wal"
)

// testSyncPolicy lets CI run the crash-injection suite under a real fsync
// regime: ASOFDB_SYNC=fdatasync flips every engine these tests open.
func testSyncPolicy(t *testing.T) wal.SyncPolicy {
	t.Helper()
	p, err := wal.ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	return p
}

// smallSegOptions opens engines over 4 KiB log segments so ordinary test
// workloads cross many segment boundaries.
func smallSegOptions(t *testing.T) Options {
	return Options{LogSegmentBytes: 4 << 10, SyncPolicy: testSyncPolicy(t)}
}

// TestRecoveryTornTailAtSegmentBoundary: a crash tears the log inside a
// record that straddles a segment boundary — the newest segment file is
// lost outright. Recovery must truncate to the CRC boundary inside the
// sealed segment, reopen it for appends, and leave a consistent database.
func TestRecoveryTornTailAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("seg")) })
	for b := 0; b < 10; b++ {
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 40; i++ {
				if err := tx.Insert("seg", testRow(b*40+i, fmt.Sprintf("r%d", i), i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	segs := db.Log().Segments()
	if len(segs) < 3 {
		t.Fatalf("workload produced only %d segments; shrink the segment size", len(segs))
	}
	db.Crash()

	// Remove the active segment and tear a few bytes off the end of the
	// last sealed one: the valid log now ends mid-segment-file, behind a
	// (likely) straddling record.
	if err := os.Remove(segs[len(segs)-1].Path); err != nil {
		t.Fatal(err)
	}
	sealed := segs[len(segs)-2]
	st, err := os.Stat(sealed.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sealed.Path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatalf("recovery after segment-boundary tear: %v", err)
	}
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatalf("consistency after segment-boundary recovery: %v", err)
	}
	mustExec(t, db2, func(tx *Txn) error { return tx.Insert("seg", testRow(90000, "after", 1)) })
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	mustExec(t, db3, func(tx *Txn) error {
		if _, ok, err := tx.Get("seg", row.Row{row.Int64(90000)}); err != nil || !ok {
			return fmt.Errorf("post-tear row: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

// TestCrashMidRotationRecovers: the engine crashes exactly as a rotation
// created the next segment file but before any record bytes reached it.
func TestCrashMidRotationRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("rot")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("rot", testRow(i, "v", i)); err != nil {
				return err
			}
		}
		return nil
	})
	segs := db.Log().Segments()
	db.Crash()

	// A headerless leftover from a torn rotation.
	leftover := filepath.Join(dir, "wal", fmt.Sprintf("%08d.seg", segs[len(segs)-1].Seq+1))
	if err := os.WriteFile(leftover, []byte("torn-rotation"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatalf("recovery after torn rotation: %v", err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("rot", nil, nil)
		if err != nil {
			return err
		}
		if n != 100 {
			return fmt.Errorf("%d rows after rotation crash, want 100", n)
		}
		return nil
	})
}

// TestBootMetaFallback: the boot record is read from the control file when
// it is intact and from page 0 when the file is missing or not a control
// file, or its boot record does not decode — either way the database opens
// on the newest usable checkpoint.
func TestBootMetaFallback(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallSegOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("bm")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("bm", testRow(1, "x", 1)) })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, control.Name)
	if _, err := os.Stat(metaPath); err != nil {
		t.Fatalf("close did not leave a control file: %v", err)
	}

	check := func(stage string) {
		db, err := Open(dir, smallSegOptions(t))
		if err != nil {
			t.Fatalf("%s: open: %v", stage, err)
		}
		mustExec(t, db, func(tx *Txn) error {
			if _, ok, err := tx.Get("bm", row.Row{row.Int64(1)}); err != nil || !ok {
				return fmt.Errorf("row lost: ok=%v err=%v", ok, err)
			}
			return nil
		})
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close: %v", stage, err)
		}
	}

	check("control file intact")

	// A boot record whose block does not decode is newest: page 0 serves.
	ctl, err := control.Open(metaPath, false)
	if err == nil {
		err = ctl.Add(control.Record{Kind: control.KindBoot, Body: []byte("garbage boot block")})
	}
	if err != nil {
		t.Fatal(err)
	}
	check("boot record corrupt")

	// Not a control file: page 0 serves.
	if err := os.WriteFile(metaPath, []byte("garbage boot meta"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("control file corrupt")

	// Missing control file: page 0 serves.
	if err := os.Remove(metaPath); err != nil {
		t.Fatal(err)
	}
	check("control file missing")
}

// TestRetentionKeepsEngineServingAcrossRestart: engine-level retention over
// segments — truncation drops whole segment files, and a restart (which
// derives its truncation floor from the surviving segments) still recovers
// and serves current data.
func TestRetentionKeepsEngineServingAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := smallSegOptions(t)
	now := time.Unix(0, 0)
	opts.Clock = clock.Func(func() time.Time { return now })
	opts.Retention = 1 // nanosecond: everything before the newest old-enough checkpoint goes
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("ret")) })
	for b := 0; b < 6; b++ {
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 40; i++ {
				if err := tx.Insert("ret", testRow(b*40+i, "v", i)); err != nil {
					return err
				}
			}
			return nil
		})
		now = now.Add(time.Minute)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Log().TruncationPoint() <= 1 {
		t.Fatal("retention never truncated")
	}
	before := len(db.Log().Segments())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open after segment retention: %v", err)
	}
	defer db2.Close()
	if got := len(db2.Log().Segments()); got > before+1 {
		t.Fatalf("segments grew across restart: %d -> %d", before, got)
	}
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("ret", nil, nil)
		if err != nil {
			return err
		}
		if n != 240 {
			return fmt.Errorf("%d rows after retention restart, want 240", n)
		}
		return nil
	})
}

// TestRetentionShorterThanCheckpointInterval: with a retention period
// shorter than one checkpoint interval, every checkpoint is already past
// the horizon when the next one runs, so the retention cut would land on
// the newest checkpoint's begin record — above the recLSNs in its
// dirty-page table, whose changes recovery must redo. The cut is clamped to
// the redo start, and a crash right after such a checkpoint loses no
// acknowledged commit.
func TestRetentionShorterThanCheckpointInterval(t *testing.T) {
	dir := t.TempDir()
	opts := smallSegOptions(t)
	var tick atomic.Int64 // every clock reading is a millisecond later
	opts.Clock = clock.Func(func() time.Time { return time.Unix(0, tick.Add(int64(time.Millisecond))) })
	opts.Retention = time.Nanosecond
	opts.CheckpointEvery = 8 << 10
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("ret")) })
	acked := 0
	fuzzyCut := false // a truncation that the redo start held below the begin record
	for b := 0; b < 40; b++ {
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 10; i++ {
				if err := tx.Insert("ret", testRow(b*10+i, fmt.Sprintf("%0200d", i), i)); err != nil {
					return err
				}
			}
			return nil
		})
		acked += 10
		mark, ok := db.LastCheckpointMark()
		if !ok {
			continue
		}
		rec, err := db.Log().Read(mark.End)
		if err != nil {
			t.Fatal(err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			t.Fatal(err)
		}
		if tp := db.Log().TruncationPoint(); tp > 1 && data.RedoStart() < data.BeginLSN {
			if tp > data.RedoStart() {
				t.Fatalf("batch %d: log truncated at %v, past the redo start %v", b, tp, data.RedoStart())
			}
			fuzzyCut = true
		}
	}
	if !fuzzyCut {
		t.Fatal("no truncation happened behind a checkpoint with a dirty-page table")
	}
	db.Crash()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("ret", nil, nil)
		if err != nil {
			return err
		}
		if n != acked {
			return fmt.Errorf("%d rows after recovery, %d acknowledged", n, acked)
		}
		return nil
	})
}
