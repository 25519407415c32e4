package repl

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// rebuildHistory runs, on db, a history in which redo meets every record that
// rebuilds a page: leaves split off (format records), most of a table deleted
// so its leaves are freed, a backup, another table that takes the freed pages
// (preformat + format pairs) and then changes them, and more splits. It
// returns the instant after each step and the backup.
func rebuildHistory(t *testing.T, db *engine.DB, clock *vclock.Clock) ([]time.Time, backup.Manifest) {
	t.Helper()
	body := strings.Repeat("R", 400)
	write := func(table string, from, to int, tag string, update bool) func(tx *engine.Txn) error {
		return func(tx *engine.Txn) error {
			for i := from; i < to; i++ {
				op := tx.Insert
				if update {
					op = tx.Update
				}
				if err := op(table, testRow(i, tag+body, i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var marks []time.Time
	step := func(fn func(tx *engine.Txn) error) {
		mustExec(t, db, fn)
		clock.Advance(time.Second)
		marks = append(marks, clock.Now())
		clock.Advance(time.Second)
	}

	step(func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	for from := 0; from < 480; from += 16 {
		step(write("t", from, from+16, "a", false))
	}
	for from := 0; from < 360; from += 30 {
		step(func(tx *engine.Txn) error {
			for i := from; i < from+30; i++ {
				if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	m, err := backup.Full(db, filepath.Join(t.TempDir(), "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	reuseFrom := db.Log().NextLSN()
	step(func(tx *engine.Txn) error { return tx.CreateTable(testSchema("u")) })
	step(write("u", 0, 300, "b", false))
	step(write("u", 0, 300, "c", true))
	step(write("t", 480, 600, "d", false))

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
		t.Fatal("no freed page was re-allocated with a preformat record")
	}
	return marks, m
}

// TestReplicaRestartRebuildsPages: a standby with a 32-frame pool applies
// rebuildHistory, writing pages back as it goes, and closes, so the data file
// holds every page as of the end of the history. With its apply state lost it
// restarts and replays the whole local log over those pages: every format,
// preformat and image record finds the copy on disk ahead of it and rebuilds
// the page from a zeroed frame, and the records after it are applied again.
// At every step of the history it must serve the primary's as-of answers.
func TestReplicaRestartRebuildsPages(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{Engine: engine.Options{BufferFrames: 32}})
	marks, _ := rebuildHistory(t, c.prim, c.clock)
	c.waitCaughtUp()
	c.stopStream()
	if w := c.rep.DB().Pool().Stats().EvictWritebacks; w == 0 {
		t.Fatal("the standby's pool wrote back no page while applying")
	}
	opts := c.rep.opts
	dir := c.rep.DB().Dir()
	if err := c.rep.Close(); err != nil {
		t.Fatal(err)
	}
	dropStandbyRecords(t, dir)
	rep, err := OpenReplica(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.rep = rep
	if rep.AppliedLSN() != c.prim.Log().FlushedLSN() {
		t.Fatalf("restarted standby applied %v, want %v", rep.AppliedLSN(), c.prim.Log().FlushedLSN())
	}
	if z := rep.DB().Pool().Stats().Zeroed; z == 0 {
		t.Fatal("the restart's replay rebuilt no page")
	}
	for i, at := range marks {
		ps, err := asof.CreateSnapshot(c.prim, at, nil)
		if err != nil {
			t.Fatalf("mark %d: primary: %v", i, err)
		}
		rs, err := rep.SnapshotAsOf(at)
		if err != nil {
			t.Fatalf("mark %d: replica: %v", i, err)
		}
		if p, r := ps.SplitLSN(), rs.SplitLSN(); p != r {
			t.Fatalf("mark %d: split divergence: primary %v, replica %v", i, p, r)
		}
		pd, rd := digest(t, ps), digest(t, rs)
		ps.Close()
		rs.Close()
		if len(pd) == 0 || fmt.Sprint(pd) != fmt.Sprint(rd) {
			t.Fatalf("mark %d: as-of digests diverge:\nprimary: %v\nreplica: %v", i, pd, rd)
		}
	}
}

// TestRestoreRebuildsPages: backup.RestoreToLSN replays rebuildHistory from
// its backup to the SplitLSN of three of its instants — the second table
// created, filled, and the end — rebuilding the freed pages it takes without
// reading their copies in the image. Each restore must equal the primary's
// as-of snapshot at that instant.
func TestRestoreRebuildsPages(t *testing.T) {
	clock := vclock.New(time.Time{})
	db, err := engine.Open(t.TempDir(), engine.Options{Clock: clock, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	marks, m := rebuildHistory(t, db, clock)
	n := len(marks)
	for _, at := range []time.Time{marks[n-4], marks[n-3], marks[n-1]} {
		ps, err := asof.CreateSnapshot(db, at, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := digest(t, ps)
		split := ps.SplitLSN()
		ps.Close()
		rst, err := backup.RestoreToLSN(m, db.Log(), split, filepath.Join(t.TempDir(), "r.db"), nil)
		if err != nil {
			t.Fatalf("restore to %v: %v", split, err)
		}
		got := treeDigest(t, rst)
		zeroed := rst.Pool().Stats().Zeroed
		rst.Close()
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("restore to %v diverges from the snapshot:\nsnapshot: %v\nrestore:  %v", split, want, got)
		}
		if zeroed == 0 {
			t.Fatalf("restore to %v rebuilt no page", split)
		}
	}
}
