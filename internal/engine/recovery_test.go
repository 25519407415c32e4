package engine

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/btree"
	"repro/internal/row"
	"repro/internal/storage/page"
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
