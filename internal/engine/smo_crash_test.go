package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/row"
	"repro/internal/wal"
)

// copyDir copies the regular files under src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tableDigest scans table t into an id->body|qty map.
func tableDigest(t *testing.T, db *DB) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	mustExec(t, db, func(tx *Txn) error {
		return tx.Scan("t", nil, nil, func(r row.Row) bool {
			got[r[0].Int] = fmt.Sprintf("%s|%d", r[1].Str, r[2].Int)
			return true
		})
	})
	return got
}

// cutLog truncates the log under dir so that it ends just before the record
// at LSN end: everything from that record on was never written. It reports
// whether anything was cut off.
func cutLog(t *testing.T, dir string, end wal.LSN) (cut bool) {
	t.Helper()
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		switch {
		case s.Base >= end:
			if err := os.Remove(s.Path); err != nil {
				t.Fatal(err)
			}
			cut = true
		case s.End > end:
			const segHeader = 32
			if err := os.Truncate(s.Path, segHeader+int64(end-s.Base)); err != nil {
				t.Fatal(err)
			}
			cut = true
		}
	}
	return cut
}

// smo is one structure modification found in a transaction's log: the
// offsets of its flagged records and of the dummy CLR that closes it, and
// what it did.
type smo struct {
	recs                 []wal.LSN // flagged records, then the closing CLR
	allocs, moves, frees int
}

// txnSMOs scans the log for the structure modifications of transaction id.
// It also returns the LSN just past the transaction's last record.
func txnSMOs(t *testing.T, db *DB, id uint64) (smos []smo, end wal.LSN) {
	t.Helper()
	var cur *smo
	err := db.log.Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.TxnID != id {
			return true, nil
		}
		end = rec.LSN + wal.LSN(rec.ApproxSize())
		switch {
		case rec.Flags&wal.FlagNTA != 0 && rec.Type != wal.TypeCLR:
			if cur == nil {
				cur = &smo{}
			}
			cur.recs = append(cur.recs, rec.LSN)
			switch rec.Type {
			case wal.TypeFormat:
				cur.allocs++
			case wal.TypeDelete:
				cur.moves++
			case wal.TypeAllocBits:
				if rec.NewData[0] < rec.OldData[0] {
					cur.frees++
				}
			}
		case rec.Type == wal.TypeCLR && rec.PageID == wal.NoPage && cur != nil:
			cur.recs = append(cur.recs, rec.LSN)
			smos = append(smos, *cur)
			cur = nil
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return smos, end
}

// TestCrashInsideSMOs crashes between every pair of records of a zero-move
// split, of a split at a run boundary and of a leaf free (and just before
// and just after each). Recovery must redo the prefix, take the unfinished
// modification back physically, undo the in-flight transaction and leave a
// consistent, usable tree holding exactly the committed rows.
func TestCrashInsideSMOs(t *testing.T) {
	body := strings.Repeat("S", 400)
	insert := func(tx *Txn, from, to int) error {
		for i := from; i < to; i++ {
			if err := tx.Insert("t", testRow(i, body, i)); err != nil {
				return err
			}
		}
		return nil
	}
	shapes := []struct {
		name string
		// base commits the starting rows; work runs in the in-flight
		// transaction; want picks the modification to crash inside.
		base func(tx *Txn) error
		work func(tx *Txn) error
		want func(s smo) bool
	}{
		{
			name: "zero-move split",
			base: func(tx *Txn) error { return insert(tx, 0, 100) },
			work: func(tx *Txn) error { return insert(tx, 100, 140) },
			want: func(s smo) bool { return s.allocs == 1 && s.moves == 0 },
		},
		{
			// Rows 1000.. sit behind the run 0..; the run's next rows land
			// between them and split the leaf at the boundary.
			name: "run-boundary split",
			base: func(tx *Txn) error {
				if err := insert(tx, 1000, 1006); err != nil {
					return err
				}
				return insert(tx, 0, 20)
			},
			work: func(tx *Txn) error { return insert(tx, 20, 60) },
			want: func(s smo) bool { return s.allocs == 1 && s.moves > 0 && s.moves <= 6 },
		},
		{
			name: "leaf free",
			base: func(tx *Txn) error { return insert(tx, 0, 100) },
			work: func(tx *Txn) error {
				for i := 0; i < 60; i++ {
					if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
						return err
					}
				}
				return nil
			},
			want: func(s smo) bool { return s.frees == 1 },
		},
	}
	for _, shape := range shapes {
		// "streams=1/" keeps the names the test floor lists these cases by.
		t.Run("streams=1/"+shape.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
			mustExec(t, db, shape.base)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			committed := tableDigest(t, db)
			midBefore := db.Obs().Snapshot()[`btree_splits_total{kind="mid"}`]

			inflight, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := shape.work(inflight); err != nil {
				t.Fatal(err)
			}
			if err := db.log.Flush(wal.LSN(inflight.lastLSN.Load())); err != nil {
				t.Fatal(err)
			}
			if mid := db.Obs().Snapshot()[`btree_splits_total{kind="mid"}`]; mid != midBefore {
				t.Fatalf("the in-flight work split %v nodes in the middle", mid-midBefore)
			}
			smos, end := txnSMOs(t, db, inflight.id)
			var target *smo
			for i := range smos {
				if shape.want(smos[i]) {
					target = &smos[i]
					break
				}
			}
			if target == nil {
				t.Fatalf("no such structure modification among %+v", smos)
			}
			db.Crash()

			// A cut at recs[i] keeps the records before it; the last
			// cut keeps the whole transaction, still uncommitted.
			cuts := append(append([]wal.LSN(nil), target.recs...), end)
			for i, cut := range cuts {
				img := filepath.Join(t.TempDir(), "img")
				copyDir(t, dir, img)
				if cutLog(t, img, cut) != (i < len(cuts)-1) {
					t.Fatalf("cut %d/%d at %v did not land inside the flushed log", i, len(cuts), cut)
				}
				rdb, err := Open(img, Options{})
				if err != nil {
					t.Fatalf("cut %d/%d: recovery: %v", i, len(cuts), err)
				}
				if _, err := rdb.CheckConsistency(); err != nil {
					t.Fatalf("cut %d/%d: %v", i, len(cuts), err)
				}
				got := tableDigest(t, rdb)
				if len(got) != len(committed) {
					t.Fatalf("cut %d/%d: %d rows after recovery, want %d", i, len(cuts), len(got), len(committed))
				}
				for id, v := range committed {
					if got[id] != v {
						t.Fatalf("cut %d/%d: row %d = %q, want %q", i, len(cuts), id, got[id], v)
					}
				}
				// The recovered tree takes the same work again, for real.
				mustExec(t, rdb, shape.work)
				if _, err := rdb.CheckConsistency(); err != nil {
					t.Fatalf("cut %d/%d: after redoing the work: %v", i, len(cuts), err)
				}
				rdb.Close()
			}
		})
	}
}

// TestConcurrentQueuesFreeLeaves runs several clients that each treat their
// key range as a queue — append at the head, delete from the tail, as
// new_order does under NewOrder and Delivery — so leaves are split at the
// insertion point and freed while other clients are in the same tree.
func TestConcurrentQueuesFreeLeaves(t *testing.T) {
	db := openTestDB(t, Options{})
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	const clients, rounds, batch, backlog = 4, 60, 5, 60 // the backlog spans several leaves
	body := strings.Repeat("Q", 300)
	errs := make(chan error, clients)
	// round appends one batch at the head of the client's queue and deletes
	// what has fallen more than backlog behind it.
	round := func(base, r int, commit bool) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for i := r * batch; i < (r+1)*batch; i++ {
			if err := tx.Insert("t", testRow(base+i, body, i)); err != nil {
				tx.Rollback()
				return err
			}
		}
		for i := max(0, r*batch-backlog); i < (r+1)*batch-backlog; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(base + i))}); err != nil {
				tx.Rollback()
				return err
			}
		}
		if commit {
			return tx.Commit()
		}
		return tx.Rollback()
	}
	for c := 0; c < clients; c++ {
		go func(base int) {
			errs <- func() error {
				for r := 0; r < rounds; r++ {
					if r%7 == 3 { // first in vain: frees and splits stay, rows come back
						if err := round(base, r, false); err != nil {
							return err
						}
					}
					if err := round(base, r, true); err != nil {
						return err
					}
				}
				return nil
			}()
		}(c * 100000)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := tableDigest(t, db)
	if len(got) != clients*backlog {
		t.Fatalf("%d rows left, want %d", len(got), clients*backlog)
	}
	snap := db.Obs().Snapshot()
	if snap["btree_leaf_frees_total"] == 0 || snap[`btree_splits_total{kind="point"}`] == 0 {
		t.Fatalf("no leaf freed or no insertion-point split: %v / %v",
			snap["btree_leaf_frees_total"], snap[`btree_splits_total{kind="point"}`])
	}
}
