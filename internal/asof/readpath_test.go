package asof

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// bigBody pads rows so the history spans a meaningful number of pages.
var bigBody = string(bytes.Repeat([]byte("x"), 160))

// buildVariedHistory generates a history exercising every chain-record
// shape the reader must rewind across: inserts, updates, deletes, CLRs
// (rolled-back transaction), preformat records (pages freed by a drop and
// re-allocated), periodic full page images, and allocation-bitmap changes.
// It returns the as-of LSNs captured after each phase.
func buildVariedHistory(t *testing.T, db *engine.DB, clock *vclock) []wal.LSN {
	t.Helper()
	mark := func(lsns []wal.LSN) []wal.LSN {
		return append(lsns, db.Log().NextLSN()-1)
	}
	var lsns []wal.LSN

	pad := func(s string) string { return s + bigBody }

	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("t", testRow(i, pad("v1"), i)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// Updates and deletes.
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 120; i += 2 {
			if err := tx.Update("t", testRow(i, pad("v2"), i*10)); err != nil {
				return err
			}
		}
		for i := 150; i < 170; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// A rolled-back transaction: CLRs land on the page chains.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := tx.Update("t", testRow(i, "rolled-back", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// Drop and recreate: freed pages re-allocated under a new table write
	// preformat records joining the new chains to the old ones.
	exec(t, db, func(tx *engine.Txn) error { return tx.DropTable("t") })
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("u")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 250; i++ {
			if err := tx.Insert("u", testRow(i, pad("after-realloc"), i)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 150; i += 3 {
			if err := tx.Update("u", testRow(i, "final", i+1)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	return lsns
}

// PreparePageAsOfBaseline is the pre-ChainReader implementation: one
// locked, allocating Manager.Read per chain record. It is the reference the
// chain-reader equivalence tests compare PreparePageAsOf and
// PreparePagesAsOf against. Semantics are identical to PreparePageAsOf.
func PreparePageAsOfBaseline(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) error {
	cur := wal.LSN(p.PageLSN())
	if cur <= asOf {
		return nil
	}
	if stats != nil {
		stats.PagesPrepared.Add(1)
	}
	if img, err := oldestImageAtOrAfterBaseline(p, asOf, log, stats); err != nil {
		return err
	} else if img != nil {
		p.CopyFrom(img.NewData)
		if stats != nil {
			stats.ImageRestores.Add(1)
		}
		cur = img.PrevPageLSN
	}
	for cur > asOf {
		rec, err := log.Read(cur)
		if err != nil {
			return fmt.Errorf("asof: read %v: %w", cur, err)
		}
		if err := wal.Undo(p, rec); err != nil {
			return fmt.Errorf("%w: %w", ErrChainBroken, err)
		}
		if stats != nil {
			stats.RecordsUndone.Add(1)
		}
		next := rec.PrevPageLSN
		if rec.Type == wal.TypePreformat {
			next = wal.LSN(p.PageLSN())
		}
		if next >= cur && next != wal.NilLSN {
			return fmt.Errorf("%w: chain does not descend at %v (-> %v)", ErrChainBroken, cur, next)
		}
		cur = next
	}
	p.SetPageLSN(uint64(cur))
	return nil
}

func oldestImageAtOrAfterBaseline(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) (*wal.Record, error) {
	var candidate *wal.Record
	cur := wal.LSN(p.LastImageLSN())
	pageLSN := wal.LSN(p.PageLSN())
	for cur != wal.NilLSN && cur > asOf {
		if cur > pageLSN {
			break
		}
		rec, err := log.Read(cur)
		if err != nil {
			return nil, fmt.Errorf("asof: read image %v: %w", cur, err)
		}
		if rec.Type != wal.TypeImage {
			return nil, fmt.Errorf("asof: image chain hit %v at %v", rec.Type, cur)
		}
		if stats != nil {
			stats.ImageChainHops.Add(1)
		}
		candidate = rec
		cur = rec.PrevImageLSN
	}
	if candidate != nil && candidate.LSN < wal.LSN(p.PageLSN()) {
		return candidate, nil
	}
	return nil, nil
}

// TestPrepareEquivalenceChainReaderVsManagerRead is the chain-reader
// equivalence test: rewinding every page of a varied history to every
// captured as-of point must yield byte-identical pages through the
// block-granular ChainReader path (PreparePageAsOf) and the per-record
// Manager.Read path (PreparePageAsOfBaseline).
func TestPrepareEquivalenceChainReaderVsManagerRead(t *testing.T) {
	clock := newVClock()
	// Image logging on, so image chains participate.
	db := openDB(t, clock, engine.Options{PageImageEvery: 7})
	lsns := buildVariedHistory(t, db, clock)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pages := db.Data().PageCount()
	if pages < 10 {
		t.Fatalf("history too small: %d pages", pages)
	}
	orig := make([]byte, page.Size)
	compared := 0
	for id := uint32(1); id < pages; id++ {
		h, err := db.Pool().Fetch(page.ID(id), false)
		if err != nil {
			continue // never-allocated gap page
		}
		copy(orig, h.Page().Bytes())
		h.Release()
		for _, asOf := range lsns {
			fast := page.FromBytes(append([]byte(nil), orig...))
			slow := page.FromBytes(append([]byte(nil), orig...))
			errFast := PreparePageAsOf(fast, asOf, db.Log(), nil)
			errSlow := PreparePageAsOfBaseline(slow, asOf, db.Log(), nil)
			if (errFast == nil) != (errSlow == nil) {
				t.Fatalf("page %d asOf %v: error divergence: fast=%v slow=%v", id, asOf, errFast, errSlow)
			}
			if errFast != nil {
				continue
			}
			if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
				t.Fatalf("page %d asOf %v: rewound bytes diverge", id, asOf)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no page/asOf pairs compared")
	}
	t.Logf("compared %d page/asOf rewinds across %d pages", compared, pages)
}

// TestPrepareZeroAllocPerUndoneRecord asserts the acceptance criterion:
// steady-state PreparePageAsOf chain walks allocate nothing per undone
// record (the pooled reader, pinned blocks and scratch record make the
// whole walk allocation-free once warm).
func TestPrepareZeroAllocPerUndoneRecord(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "v0", 0)) })
	asOf := db.Log().NextLSN() - 1

	// 300 updates of the same row: one long single-page chain.
	for i := 0; i < 300; i++ {
		exec(t, db, func(tx *engine.Txn) error {
			return tx.Update("t", testRow(1, fmt.Sprintf("v%d", i+1), i))
		})
	}
	var root page.ID
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		root = tbl.Root
		return nil
	})
	h, err := db.Pool().Fetch(root, false)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), h.Page().Bytes()...)
	h.Release()

	scratch := page.FromBytes(make([]byte, page.Size))
	var stats Stats
	prepare := func() {
		scratch.CopyFrom(orig)
		if err := PreparePageAsOf(scratch, asOf, db.Log(), &stats); err != nil {
			t.Fatal(err)
		}
	}
	prepare() // warm pool, cache and reader
	before := stats.RecordsUndone.Load()
	prepare()
	perCall := stats.RecordsUndone.Load() - before
	if perCall < 300 {
		t.Fatalf("chain shorter than expected: %d records", perCall)
	}
	allocs := testing.AllocsPerRun(20, prepare)
	if perRecord := allocs / float64(perCall); perRecord > 0.01 {
		t.Fatalf("PreparePageAsOf allocates %.3f allocs per undone record (%.1f per call, %d records)",
			perRecord, allocs, perCall)
	}
}

// TestResolveTimeSparseIndexWindow verifies that once the time→LSN index
// covers the target, ResolveTime starts its commit scan inside one sample
// window of the split instead of at the preceding checkpoint, and resolves
// the same SplitLSN a full scan would.
func TestResolveTimeSparseIndexWindow(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	// One early checkpoint, then a long checkpoint-free stretch of commits:
	// without the sparse index, resolution scans the whole stretch.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	type commitMark struct {
		at  time.Time
		lsn wal.LSN
	}
	var marks []commitMark
	pad := string(bytes.Repeat([]byte("p"), 800))
	for i := 0; i < 500; i++ {
		exec(t, db, func(tx *engine.Txn) error {
			return tx.Insert("t", testRow(i, pad, i))
		})
		marks = append(marks, commitMark{at: clock.Now(), lsn: db.Log().NextLSN() - 1})
		clock.Advance(time.Second)
	}
	if db.Log().TimeIndexLen() < 3 {
		t.Fatalf("sparse index too small: %d samples over %d bytes of log",
			db.Log().TimeIndexLen(), db.Log().Size())
	}

	// marks[i].lsn is the end of commit i's record, so commit i's own LSN
	// lies in (marks[i-1].lsn, marks[i].lsn].
	target := marks[350]
	sp, err := ResolveTime(db, target.at)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SplitLSN <= marks[349].lsn || sp.SplitLSN > target.lsn {
		t.Fatalf("split %v outside commit-350 record (%v, %v]", sp.SplitLSN, marks[349].lsn, target.lsn)
	}
	// The floor sample must bound the scan window to one sample interval.
	s, ok := db.Log().TimeFloor(target.at.UnixNano())
	if !ok {
		t.Fatal("index does not cover target")
	}
	if s.LSN > sp.SplitLSN {
		t.Fatalf("floor %v beyond split %v", s.LSN, sp.SplitLSN)
	}
	if window := uint64(sp.SplitLSN - s.LSN); window > 2*64<<10 {
		t.Fatalf("scan window %d bytes, want within ~one 64KiB sample interval", window)
	}

	// The index survives restart via checkpoint piggybacking.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Open(dir, engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Log().TimeIndexLen() == 0 {
		t.Fatal("time index not reseeded from checkpoint chain")
	}
	sp2, err := ResolveTime(db2, target.at)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.SplitLSN != sp.SplitLSN {
		t.Fatalf("post-restart split %v, want %v", sp2.SplitLSN, sp.SplitLSN)
	}
}

// TestSnapshotQueriesDuringParallelUndo is the race hammer: several
// in-flight transactions at the split are undone by parallel workers while
// concurrent readers hammer point lookups across all affected ranges. Every
// read must see the committed pre-transaction value, whatever the
// interleaving. Run under -race in CI.
func TestSnapshotQueriesDuringParallelUndo(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const rows = 2400
	for lo := 0; lo < rows; lo += 600 {
		exec(t, db, func(tx *engine.Txn) error {
			for i := lo; i < lo+600; i++ {
				if err := tx.Insert("t", testRow(i, "clean", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Six in-flight transactions over disjoint ranges: updates, deletes and
	// fresh inserts, all uncommitted at the split.
	var open []*engine.Txn
	for w := 0; w < 6; w++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		base := w * 400
		for i := base; i < base+30; i++ {
			if err := tx.Update("t", testRow(i, "dirty", -1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := base + 30; i < base+36; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := tx.Insert("t", testRow(rows+w*10+i, "phantom", i)); err != nil {
				t.Fatal(err)
			}
		}
		open = append(open, tx)
	}
	defer func() {
		for _, tx := range open {
			tx.Rollback()
		}
	}()

	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Point().ATT); got != len(open) {
		t.Fatalf("ATT has %d transactions, want %d", got, len(open))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 120; round++ {
				id := int64((g*37 + round*13) % rows)
				r, ok, err := s.Get("t", row.Row{row.Int64(id)})
				if err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				if !ok {
					t.Errorf("row %d missing from snapshot", id)
					return
				}
				if r[1].Str != "clean" {
					t.Errorf("row %d: saw %q", id, r[1].Str)
					return
				}
			}
			// Phantom rows inserted by in-flight transactions must not
			// exist as of the split.
			id := int64(rows + (g%6)*10)
			if _, ok, err := s.Get("t", row.Row{row.Int64(id)}); err != nil || ok {
				t.Errorf("phantom row %d: ok=%v err=%v", id, ok, err)
			}
		}(g)
	}
	wg.Wait()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	n, err := s.CountRows("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("snapshot has %d rows, want %d", n, rows)
	}
}
