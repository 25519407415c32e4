package asof

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

// TestRecoveryRebuildsAnalysisMarks: crash recovery's scan takes analysis
// marks at the cadence the running system did, from the state it rebuilds,
// so snapshot resolution on the recovered database scans as little log as
// before the crash and finds the same transactions in flight. The history
// is 2 MiB of log past the only checkpoint, with transactions that stay open
// across many marks, some rolled back, one still open at the crash.
func TestRecoveryRebuildsAnalysisMarks(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	opts := engine.Options{Clock: clock}
	db, err := engine.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	body := strings.Repeat("m", 900)
	var open []*engine.Txn
	var splits []wal.LSN
	for i := 0; db.Log().NextLSN() < 2<<20; i++ {
		if i%40 == 0 {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, tx)
		}
		long := open[len(open)-1]
		if err := long.Insert("t", testRow(1_000_000+i, "long", i)); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 && len(open) > 2 {
			end := open[0].Commit
			if i%80 == 39 {
				end = open[0].Rollback
			}
			if err := end(); err != nil {
				t.Fatal(err)
			}
			open = open[1:]
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", testRow(i, body, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			splits = append(splits, tx.CommitLSN())
		}
	}
	kept := splits
	before := resolveAll(t, db, kept)
	db.Crash()

	db, err = engine.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	after := resolveAll(t, db, kept)
	for i := range kept {
		if after[i].att != before[i].att {
			t.Fatalf("split %v: in flight %s after recovery, %s before the crash", kept[i], after[i].att, before[i].att)
		}
		// Past the first mark, resolution scans at most one mark interval
		// and, after recovery, the 128 KiB scan batch whose end took the
		// mark; without marks it would scan from the checkpoint.
		if kept[i] > 512<<10 && (after[i].scanned > 400<<10 || before[i].scanned > 300<<10) {
			t.Fatalf("split %v: resolution scanned %d bytes after recovery, %d before the crash", kept[i], after[i].scanned, before[i].scanned)
		}
	}
	if _, ok := db.AnalysisMarkAtOrBefore(kept[len(kept)-1]); !ok {
		t.Fatal("no analysis mark after recovery")
	}
}

type resolved struct {
	att     string
	scanned int64
}

// resolveAll resolves each split and renders the transactions in flight at
// it as sorted id@lastLSN pairs.
func resolveAll(t *testing.T, db *engine.DB, splits []wal.LSN) []resolved {
	t.Helper()
	out := make([]resolved, len(splits))
	for i, split := range splits {
		pt, err := ResolveLSN(db, split)
		if err != nil {
			t.Fatal(err)
		}
		att := make([]string, len(pt.ATT))
		for j, e := range pt.ATT {
			att[j] = fmt.Sprintf("%d@%v", e.TxnID, e.LastLSN)
		}
		sort.Strings(att)
		out[i] = resolved{att: strings.Join(att, ","), scanned: pt.LogScanned}
	}
	return out
}
