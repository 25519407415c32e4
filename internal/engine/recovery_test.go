package engine

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/btree"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// TestRecoveryReadsInRuns: a crash image whose redo needs the bytes of 32
// leaves with consecutive page ids — one update each past a flush-all
// checkpoint — recovers reading them ahead as two runs of 16 pages, not 32
// single reads. The recovery counters say 32 pages in at most two reads, and
// the recovered rows are the committed ones.
func TestRecoveryReadsInRuns(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncPolicy: testSyncPolicy(t)}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Obs().Snapshot()["engine_recovery_read_ios_total"]; !ok || v != 0 {
		t.Fatalf("engine_recovery_read_ios_total on a fresh database = %v (registered: %v), want 0", v, ok)
	}
	model := make(map[int64]string)
	body := func(prefix string, i int) string { return fmt.Sprintf("%s%0399d", prefix, i) }
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 1200; i++ {
			if err := tx.Insert("t", testRow(i, body("i", i), i)); err != nil {
				return err
			}
			model[int64(i)] = fmt.Sprintf("%s|%d", body("i", i), i)
		}
		return nil
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The first row of each leaf, in key order, and the first 32 leaves
	// whose page ids follow one another.
	var firstRow []int
	var leaves []page.ID
	mustExec(t, db, func(tx *Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		for i := 0; i < 1200; i++ {
			leaf, err := btree.LeafOf(tx, tbl.Root, row.EncodeKey(row.Row{row.Int64(int64(i))}))
			if err != nil {
				return err
			}
			if n := len(leaves); n == 0 || leaves[n-1] != leaf {
				leaves = append(leaves, leaf)
				firstRow = append(firstRow, i)
			}
		}
		return nil
	})
	start, run := -1, 1
	for i := 1; i < len(leaves) && start < 0; i++ {
		if leaves[i] == leaves[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run == 32 {
			start = i - 31
		}
	}
	if start < 0 {
		t.Fatalf("no 32 leaves with consecutive page ids among %v", leaves)
	}
	mustExec(t, db, func(tx *Txn) error {
		for _, i := range firstRow[start : start+32] {
			if err := tx.Update("t", testRow(i, body("u", i), i)); err != nil {
				return err
			}
			model[int64(i)] = fmt.Sprintf("%s|%d", body("u", i), i)
		}
		return nil
	})
	db.Crash()

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Obs().Snapshot()
	if got := snap["engine_recovery_pages_read_total"]; got != 32 {
		t.Errorf("engine_recovery_pages_read_total = %v, want 32", got)
	}
	if got := snap["engine_recovery_read_ios_total"]; got < 1 || got > 2 {
		t.Errorf("engine_recovery_read_ios_total = %v, want the 32 pages in at most 2 reads", got)
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := tableDigest(t, db); !maps.Equal(got, model) {
		t.Fatalf("%d rows after recovery, want the %d committed", len(got), len(model))
	}
}

// TestRecoveryLeavesCleanPagesClean: redo dirties a page only when a record
// changes it. A crash image whose data file already holds every change but
// the last row's — rows updated past a checkpoint, every dirty page then
// written back without one — recovers reading those pages, writing none of
// them back, and closes with a checkpoint whose dirty-page table lists the
// pages of the last row's records and nothing else. The table has more
// leaves than the pool has frames, so redo evicts pages it read.
func TestRecoveryLeavesCleanPagesClean(t *testing.T) {
	dir := t.TempDir()
	opts := Options{BufferFrames: 32, SyncPolicy: testSyncPolicy(t)}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]string)
	body := func(prefix string, i int) string { return fmt.Sprintf("%s%0399d", prefix, i) }
	write := func(prefix string, from, to int, op func(*Txn, string, row.Row) error) {
		mustExec(t, db, func(tx *Txn) error {
			for i := from; i < to; i++ {
				if err := op(tx, "t", testRow(i, body(prefix, i), i)); err != nil {
					return err
				}
				model[int64(i)] = fmt.Sprintf("%s|%d", body(prefix, i), i)
			}
			return nil
		})
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	write("i", 0, 1200, (*Txn).Insert)
	// Past the checkpoint the rows change in place: every page redo reads
	// below the last row was in the data file before the checkpoint, so no
	// record past it rebuilds a page from zero.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i += 100 {
		write("u", i, i+100, (*Txn).Update)
	}
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.data.Sync(); err != nil {
		t.Fatal(err)
	}
	from := db.log.NextLSN()
	write("i", 1200, 1201, (*Txn).Insert)
	// The pages the last row's records change, at their first record.
	want := make(map[uint32]wal.LSN)
	if err := db.log.Scan(from, func(rec *wal.Record) (bool, error) {
		if _, ok := want[rec.PageID]; !ok && rec.IsPageOp() && rec.PageID != wal.NoPage {
			want[rec.PageID] = rec.LSN
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the last row logged no page record")
	}
	db.Crash()

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Obs().Snapshot()
	if got := snap["engine_recovery_pages_read_total"]; got <= float64(opts.BufferFrames) {
		t.Errorf("engine_recovery_pages_read_total = %v, want more than the pool's %d frames", got, opts.BufferFrames)
	}
	if got := snap["engine_recovery_pages_written_total"]; got != 0 {
		t.Errorf("engine_recovery_pages_written_total = %v, want 0", got)
	}
	if got := snap["engine_checkpoint_pages_written_total"]; got != 0 {
		t.Errorf("engine_checkpoint_pages_written_total = %v, want 0", got)
	}
	db.mu.Lock()
	end := db.boot.lastCkptEnd
	db.mu.Unlock()
	rec, err := db.log.Read(end)
	if err != nil {
		t.Fatal(err)
	}
	data, err := wal.DecodeCheckpoint(rec.Extra)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]wal.LSN, len(data.DPT))
	for _, e := range data.DPT {
		got[e.PageID] = e.RecLSN
	}
	if !maps.Equal(got, want) {
		t.Errorf("closing checkpoint's dirty-page table = %v, want the last row's pages %v", got, want)
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := tableDigest(t, db); !maps.Equal(got, model) {
		t.Fatalf("%d rows after recovery, want the %d committed", len(got), len(model))
	}
}
