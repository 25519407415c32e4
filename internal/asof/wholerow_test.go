package asof

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/wal"
)

// TestWholeRowLogStaysReadable opens testdata/wholerow-log, a database
// directory written by the last build whose update records held the whole row
// twice (commit ccf43e8) and abandoned with Crash(): on a clock that read
// 12:00:01 … 12:00:05 for its five commits it created table t, inserted rows
// 0–11, checkpointed, updated rows 1 (same length), 2 (longer) and 3 (shorter)
// and deleted row 4, updated row 1 again, and — in a transaction still open at
// the crash — updated row 5 twice and row 6 once and inserted row 100; a last
// commit updated row 7 and forced all of that to disk. Such a record is a delta
// with an empty head (see internal/wal/update.go), so nothing here branches on
// which build wrote the log: recovery redoes its updates and rolls back the
// transaction begun in it, an as-of read rewinds across them and across the
// delta CLRs that rollback wrote, and new work lands on top.
func TestWholeRowLogStaysReadable(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "wholerow-log")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		if err != nil || d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	wholeRow := 0
	lg, err := wal.OpenStore(filepath.Join(dir, "wal"), wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = lg.Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeUpdate && len(rec.Extra) == 0 && len(rec.OldData) > 20 {
			wholeRow++
		}
		return true, nil
	})
	lg.Close()
	if err != nil || wholeRow != 8 {
		t.Fatalf("the checked-in log holds %d whole-row update records (err %v), want 8", wholeRow, err)
	}

	at := func(sec int) time.Time { return time.Date(2012, 8, 27, 12, 0, sec, 0, time.UTC) }
	clock := &vclock{t: at(30)}
	db, err := engine.Open(dir, engine.Options{Clock: clock})
	if err != nil {
		t.Fatalf("recovery over the whole-row log: %v", err)
	}
	defer db.Close()
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	type rowState struct {
		body string
		qty  int64
	}
	read := func(get func(row.Row) (row.Row, bool, error)) map[int]rowState {
		out := map[int]rowState{}
		for _, id := range []int{1, 2, 3, 4, 5, 6, 7, 100} {
			r, ok, err := get(row.Row{row.Int64(int64(id))})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out[id] = rowState{r[1].Str, r[2].Int}
			}
		}
		return out
	}
	check := func(what string, got map[int]rowState, want map[int]rowState) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: rows %v, want %v", what, got, want)
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("%s: row %d = %v, want %v", what, id, got[id], w)
			}
		}
	}
	grown := "row-02 gggggggggggggggggggggggggggggggggggggggg"
	recovered := map[int]rowState{
		1: {"ROW-01", 101}, 2: {grown, 2}, 3: {"r3", 3},
		5: {"row-05", 5}, 6: {"row-06", 6}, 7: {"row-07", 700},
	}
	exec(t, db, func(tx *engine.Txn) error {
		check("after recovery", read(func(k row.Row) (row.Row, bool, error) { return tx.Get("t", k) }), recovered)
		return nil
	})

	// New work on rows the old log updated, then reads into the old log.
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		if err := tx.Update("t", testRow(1, "row-01 again", 102)); err != nil {
			return err
		}
		return tx.Update("t", testRow(5, "row-05", 55))
	})
	clock.Advance(time.Minute)
	for _, c := range []struct {
		sec  int
		want map[int]rowState
	}{
		{2, map[int]rowState{1: {"row-01", 1}, 2: {"row-02", 2}, 3: {"row-03", 3}, 4: {"row-04", 4},
			5: {"row-05", 5}, 6: {"row-06", 6}, 7: {"row-07", 7}}},
		{3, map[int]rowState{1: {"row-01", 100}, 2: {grown, 2}, 3: {"r3", 3},
			5: {"row-05", 5}, 6: {"row-06", 6}, 7: {"row-07", 7}}},
		{5, recovered},
	} {
		s, err := CreateSnapshot(db, at(c.sec).Add(500*time.Millisecond), nil)
		if err != nil {
			t.Fatal(err)
		}
		check(at(c.sec).Format("as of 15:04:05.5"), read(func(k row.Row) (row.Row, bool, error) { return s.Get("t", k) }), c.want)
		s.Close()
	}

	// Transaction-level undo of a transaction committed in the old log: its
	// updates' whole images are rebuilt from the as-of page either way.
	commits, err := FindCommits(db, at(3), at(3))
	if err != nil || len(commits) != 1 {
		t.Fatalf("FindCommits: %+v, %v", commits, err)
	}
	if _, err := UndoTransaction(db, commits[0].CommitLSN, true); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		check("after undoing the 12:00:03 transaction", read(func(k row.Row) (row.Row, bool, error) { return tx.Get("t", k) }),
			map[int]rowState{1: {"row-01", 1}, 2: {"row-02", 2}, 3: {"row-03", 3}, 4: {"row-04", 4},
				5: {"row-05", 55}, 6: {"row-06", 6}, 7: {"row-07", 700}})
		return nil
	})
}
