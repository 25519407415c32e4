package asof

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// The tests in this file hold the merged chain walk (PreparePagesAsOf) and
// its two callers (Snapshot.GetMany, Snapshot.Scan) to the page-at-a-time
// path: the same bytes, the same counts, the same answers, fewer log reads.

// buildSMOHistory extends buildVariedHistory (updates, deletes, a rollback,
// a drop whose pages the next table reuses) with the tree shapes of
// smo_test.go: an ascending run (insertion-point splits), inserts into the
// middle of it (middle splits), deletes that free whole leaves, a second
// table that takes the freed pages (preformat records), and a rolled-back
// transaction that had split.
func buildSMOHistory(t *testing.T, db *engine.DB, clock *vclock) {
	t.Helper()
	buildVariedHistory(t, db, clock)
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("s")) })
	for from := 0; from < 400; from += 40 {
		exec(t, db, func(tx *engine.Txn) error {
			for i := from; i < from+40; i++ { // even ids: room in between
				if err := tx.Insert("s", testRow(2*i, smoBody, i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	exec(t, db, func(tx *engine.Txn) error {
		for i := 100; i < 200; i++ {
			if err := tx.Insert("s", testRow(2*i+1, smoBody, -i)); err != nil {
				return err
			}
		}
		return nil
	})
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 360; i++ {
		if err := tx.Insert("s", testRow(2*i+1, smoBody, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 150; i++ {
			if err := tx.Delete("s", row.Row{row.Int64(int64(2 * i))}); err != nil {
				return err
			}
		}
		return nil
	})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("w")) })
	exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "w", 0, 150) })
	for _, c := range []struct {
		name string
		min  float64
	}{{`btree_splits_total{kind="point"}`, 5}, {`btree_splits_total{kind="mid"}`, 5}, {"btree_leaf_frees_total", 3}} {
		if got := metric(db, c.name); got < c.min {
			t.Fatalf("history has %s = %v, want at least %v", c.name, got, c.min)
		}
	}
}

// pageCopies returns the current content of every allocated page.
func pageCopies(t *testing.T, db *engine.DB) map[page.ID][]byte {
	t.Helper()
	out := make(map[page.ID][]byte)
	for id := uint32(1); id < db.Data().PageCount(); id++ {
		h, err := db.Pool().Fetch(page.ID(id), false)
		if err != nil {
			continue // never-allocated gap page
		}
		out[page.ID(id)] = append([]byte(nil), h.Page().Bytes()...)
		h.Release()
	}
	return out
}

func statsOf(s *Stats) [4]int64 {
	return [4]int64{s.PagesPrepared.Load(), s.RecordsUndone.Load(), s.ImageRestores.Load(), s.ImageChainHops.Load()}
}

// TestMergedWalkByteIdentical rewinds random page subsets to random LSNs
// three ways — one merged walk, one PreparePageAsOf per page, one
// PreparePageAsOfBaseline per page — and requires the same bytes on every
// page and the same work counted.
func TestMergedWalkByteIdentical(t *testing.T) {
	for _, every := range []int{0, 10} {
		t.Run(fmt.Sprintf("PageImageEvery=%d", every), func(t *testing.T) {
			clock := newVClock()
			db := openDB(t, clock, engine.Options{PageImageEvery: every})
			first := db.Log().NextLSN()
			buildSMOHistory(t, db, clock)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			orig := pageCopies(t, db)
			ids := make([]page.ID, 0, len(orig))
			for id := range orig {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			end := db.Log().NextLSN()
			rng := rand.New(rand.NewSource(int64(20 + every)))

			var preformats, restores, compared int64
			for trial := 0; trial < 60; trial++ {
				asOf := first + wal.LSN(rng.Int63n(int64(end-first)))
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				subset := ids[:1+rng.Intn(min(48, len(ids)))]

				// Page at a time, both ways. A page whose chain cannot
				// reach asOf errors identically in both and is left out of
				// the batch (an error there ends the whole walk).
				var single Stats
				var batchIDs []page.ID
				want := make(map[page.ID][]byte)
				for _, id := range subset {
					fast := page.FromBytes(append([]byte(nil), orig[id]...))
					slow := page.FromBytes(append([]byte(nil), orig[id]...))
					var one, ref Stats
					errFast := PreparePageAsOf(fast, asOf, db.Log(), &one)
					errSlow := PreparePageAsOfBaseline(slow, asOf, db.Log(), &ref)
					if (errFast == nil) != (errSlow == nil) {
						t.Fatalf("page %d asOf %v: error divergence: %v vs %v", id, asOf, errFast, errSlow)
					}
					if errFast != nil {
						continue
					}
					if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
						t.Fatalf("page %d asOf %v: PreparePageAsOf and the baseline diverge", id, asOf)
					}
					if statsOf(&one) != statsOf(&ref) {
						t.Fatalf("page %d asOf %v: counted %v, baseline %v", id, asOf, statsOf(&one), statsOf(&ref))
					}
					single.PagesPrepared.Add(one.PagesPrepared.Load())
					single.RecordsUndone.Add(one.RecordsUndone.Load())
					single.ImageRestores.Add(one.ImageRestores.Load())
					single.ImageChainHops.Add(one.ImageChainHops.Load())
					batchIDs = append(batchIDs, id)
					want[id] = fast.Bytes()
				}

				pages := make([]*page.Page, len(batchIDs))
				for i, id := range batchIDs {
					pages[i] = page.FromBytes(append([]byte(nil), orig[id]...))
				}
				var merged Stats
				if err := PreparePagesAsOf(pages, asOf, db.Log(), &merged); err != nil {
					t.Fatalf("asOf %v, %d pages: %v", asOf, len(pages), err)
				}
				for i, id := range batchIDs {
					if !bytes.Equal(pages[i].Bytes(), want[id]) {
						t.Fatalf("page %d asOf %v: merged walk diverges from the single walk", id, asOf)
					}
				}
				if statsOf(&merged) != statsOf(&single) {
					t.Fatalf("asOf %v: merged walk counted %v, single walks %v", asOf, statsOf(&merged), statsOf(&single))
				}
				compared += int64(len(pages))
				restores += merged.ImageRestores.Load()
			}
			if err := db.Log().Scan(first, func(rec *wal.Record) (bool, error) {
				if rec.Type == wal.TypePreformat {
					preformats++
				}
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			if preformats == 0 || compared < 500 || (every > 0) != (restores > 0) {
				t.Fatalf("weak history: %d preformat records, %d pages compared, %d image restores", preformats, compared, restores)
			}
		})
	}
}

// deepHistory builds a table of about 40 leaves and then touches every leaf
// in each of many rounds, so every leaf's chain spans the whole log written
// after the returned LSN. It returns that LSN, the table's leaves and the
// LSN after the last round.
func deepHistory(t *testing.T, db *engine.DB, rounds int) (split wal.LSN, leaves []page.ID, end wal.LSN) {
	t.Helper()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const rows = 720
	exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "t", 0, rows) })
	split = db.Log().NextLSN() - 1
	for r := 0; r < rounds; r++ {
		exec(t, db, func(tx *engine.Txn) error {
			for i := r % 6; i < rows; i += 6 {
				if err := tx.Update("t", testRow(i, smoBody, r)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		run, next, err := btree.LeafRun(tx, tbl.Root, nil, nil)
		for _, l := range run {
			leaves = append(leaves, l.ID)
		}
		if err == nil && next != nil {
			err = fmt.Errorf("table spans more than one level-1 node")
		}
		return err
	})
	if len(leaves) < 30 {
		t.Fatalf("table has %d leaves", len(leaves))
	}
	return split, leaves, db.Log().NextLSN()
}

// TestMergedWalkReadsEachBlockOnce counts log reads on the media model: a
// batch of N deep pages is charged no more than the N single walks, and no
// more than the blocks between the split and the newest page LSN plus the
// one block of readahead below them — with a block cache far smaller than
// that region, which is what defeats the single walks.
func TestMergedWalkReadsEachBlockOnce(t *testing.T) {
	clock := newVClock()
	logDev := media.New(media.SSD(), nil)
	db := openDB(t, clock, engine.Options{LogDevice: logDev, LogCacheBlocks: 8})
	split, leaves, end := deepHistory(t, db, 260) // 60 rounds filled this region when an update logged the row twice
	const blockSize = 32 << 10
	region := int64(end-1)/blockSize - int64(split-1)/blockSize + 1
	if region < 40 {
		t.Fatalf("log region after the split is only %d blocks", region)
	}

	copies := func() []*page.Page {
		out := make([]*page.Page, len(leaves))
		for i, id := range leaves {
			h, err := db.Pool().Fetch(id, false)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = page.FromBytes(append([]byte(nil), h.Page().Bytes()...))
			h.Release()
		}
		return out
	}
	measure := func(fn func()) (ios, bytesRead int64) {
		db.Log().InvalidateCache()
		before, reads := logDev.Stats.Snapshot(), db.Log().UndoReads.Load()
		fn()
		d := logDev.Stats.Snapshot().Sub(before)
		return db.Log().UndoReads.Load() - reads, d.ReadBytes
	}

	singles := copies()
	singleIOs, singleBytes := measure(func() {
		for _, p := range singles {
			if err := PreparePageAsOf(p, split, db.Log(), nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	batch := copies()
	batchIOs, batchBytes := measure(func() {
		if err := PreparePagesAsOf(batch, split, db.Log(), nil); err != nil {
			t.Fatal(err)
		}
	})
	for i := range batch {
		if !bytes.Equal(batch[i].Bytes(), singles[i].Bytes()) {
			t.Fatalf("leaf %d: batch and single rewinds differ", leaves[i])
		}
	}
	t.Logf("%d leaves, %d-block region: single walks %d reads / %d B, merged walk %d reads / %d B",
		len(leaves), region, singleIOs, singleBytes, batchIOs, batchBytes)
	if batchIOs > singleIOs || batchBytes > singleBytes {
		t.Fatalf("merged walk read more than the single walks: %d > %d reads or %d > %d bytes",
			batchIOs, singleIOs, batchBytes, singleBytes)
	}
	if batchIOs > region+1 || batchBytes > (region+1)*blockSize {
		t.Fatalf("merged walk read %d times / %d bytes over a region of %d blocks", batchIOs, batchBytes, region)
	}
	if singleIOs < 4*batchIOs {
		t.Fatalf("history too shallow to tell: single walks %d reads, merged %d", singleIOs, batchIOs)
	}
}

// TestBatchQueriesBesideBackgroundUndo runs GetMany and Scan from several
// goroutines on a snapshot whose in-flight transactions are being undone in
// the background — on pages the batches also want — and compares every
// answer with a second snapshot of the same LSN read one Get at a time.
// Run under -race in CI.
func TestBatchQueriesBesideBackgroundUndo(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const rows = 1800
	for lo := 0; lo < rows; lo += 600 {
		exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "t", lo, lo+600) })
	}
	// Six transactions in flight at the split, over ranges the queries read.
	var open []*engine.Txn
	for w := 0; w < 6; w++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		base := w * 300
		for i := base; i < base+40; i++ {
			if err := tx.Update("t", testRow(i, "dirty", -1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := base + 40; i < base+50; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
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
	split := db.Log().NextLSN() - 1
	// Committed work after the split, beside the in-flight rows: every leaf
	// needs a rewind, and the batches rewind the pages the undo fixes.
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < rows; i += 7 {
			if i%300 < 50 {
				continue // locked by an in-flight transaction
			}
			if err := tx.Update("t", testRow(i, "later", -i)); err != nil {
				return err
			}
		}
		return nil
	})

	// The reference: the same LSN, one Get at a time.
	ref, err := CreateSnapshotAtLSN(db, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]row.Row, rows+60)
	for id := range want {
		r, _, err := ref.Get("t", row.Row{row.Int64(int64(id))})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = r
	}
	if ref.Stats().BatchPrepares.Load() != 0 {
		t.Fatal("Get went through a batch")
	}
	for id := 0; id < rows; id++ {
		if want[id] == nil || want[id][1].Str == "dirty" {
			t.Fatalf("reference row %d = %v", id, want[id])
		}
	}

	s, err := CreateSnapshotAtLSN(db, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Point().ATT); got != len(open) {
		t.Fatalf("ATT has %d transactions, want %d", got, len(open))
	}
	same := func(a, b row.Row) bool {
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		return a[0].Int == b[0].Int && a[1].Str == b[1].Str && a[2].Int == b[2].Int
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Keys strided across the table, in-flight ranges and
				// phantoms included.
				var ids []int
				for id := g; id < rows+60; id += 5 {
					ids = append(ids, id)
				}
				keys := make([]row.Row, len(ids))
				for i, id := range ids {
					keys[i] = row.Row{row.Int64(int64(id))}
				}
				got, err := s.GetMany("t", keys)
				if err != nil {
					t.Errorf("GetMany: %v", err)
					return
				}
				for i, id := range ids {
					if !same(got[i], want[id]) {
						t.Errorf("GetMany row %d = %v, want %v", id, got[i], want[id])
						return
					}
				}
				return
			}
			lo, hi := g*100, g*100+900
			next := lo
			err := s.Scan("t", row.Row{row.Int64(int64(lo))}, row.Row{row.Int64(int64(hi))}, func(r row.Row) bool {
				for next < hi && want[next] == nil {
					next++
				}
				if next >= hi || !same(r, want[next]) {
					t.Errorf("Scan [%d,%d) returned %v, want row %d = %v", lo, hi, r, next, want[next])
					return false
				}
				next++
				return true
			})
			if err != nil {
				t.Errorf("Scan: %v", err)
			}
			for next < hi && want[next] == nil {
				next++
			}
			if next != hi && !t.Failed() {
				t.Errorf("Scan [%d,%d) stopped at %d", lo, hi, next)
			}
		}(g)
	}
	wg.Wait()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().BatchPrepares.Load() == 0 {
		t.Fatal("no query went through a batch")
	}
	if n := snapCount(t, s, "t"); n != rows {
		t.Fatalf("snapshot has %d rows, want %d", n, rows)
	}
}

// TestScanPreparesAheadBoundedly stops scans of a 500-leaf table early and
// requires that no more than twice the leaves that rows came from were
// handed to batch rewinds; a bounded range prepares only its own leaves.
func TestScanPreparesAheadBoundedly(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{BufferFrames: 2048})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const rows = 9600
	for lo := 0; lo < rows; lo += 1200 {
		exec(t, db, func(tx *engine.Txn) error { return insertRange(tx, "t", lo, lo+1200) })
	}
	split := db.Log().NextLSN() - 1
	exec(t, db, func(tx *engine.Txn) error { // every leaf changes after the split
		for i := 0; i < rows; i += 5 {
			if err := tx.Update("t", testRow(i, smoBody, -i)); err != nil {
				return err
			}
		}
		return nil
	})
	var root page.ID
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		root = tbl.Root
		st, err := btree.TreeStats(tx, root)
		if err == nil && st.Leaves < 500 {
			err = fmt.Errorf("table has %d leaves", st.Leaves)
		}
		return err
	})

	var batches, batchPages, sideIOs, sidePages int64
	for _, stopAfter := range []int{1, 25, 60, 400, 3000} {
		s, err := CreateSnapshotAtLSN(db, split, nil)
		if err != nil {
			t.Fatal(err)
		}
		var keys []row.Row
		if err := s.Scan("t", nil, nil, func(r row.Row) bool {
			keys = append(keys, row.Row{r[0]})
			return len(keys) < stopAfter
		}); err != nil {
			t.Fatal(err)
		}
		if len(keys) != stopAfter {
			t.Fatalf("scan returned %d rows, want %d", len(keys), stopAfter)
		}
		prepared := s.Stats().BatchPages.Load()
		read := make(map[page.ID]bool)
		for _, k := range keys {
			id, err := btree.LeafOf(s, root, row.EncodeKey(k))
			if err != nil {
				t.Fatal(err)
			}
			read[id] = true
		}
		if prepared > 2*int64(len(read)) {
			t.Fatalf("stop after %d rows: rows came from %d leaves, %d were prepared", stopAfter, len(read), prepared)
		}
		batches += s.Stats().BatchPrepares.Load()
		batchPages += prepared
		s.Close()
		ios, pages := s.side.WriteStats()
		sideIOs += ios
		sidePages += pages
	}
	// A closed snapshot's batch counts reach the database-wide counters.
	if got := metric(db, "asof_batch_prepares_total"); batches == 0 || got != float64(batches) {
		t.Fatalf("asof_batch_prepares_total = %v, snapshots counted %d", got, batches)
	}
	if got := metric(db, "asof_batch_pages_total"); got != float64(batchPages) {
		t.Fatalf("asof_batch_pages_total = %v, snapshots counted %d", got, batchPages)
	}
	// And so do their side-file writes, batches written a run at a time.
	if got := metric(db, "sidefile_pages_written_total"); got != float64(sidePages) || sidePages < batchPages {
		t.Fatalf("sidefile_pages_written_total = %v, side files wrote %d (batches %d)", got, sidePages, batchPages)
	}
	if got := metric(db, "sidefile_write_ios_total"); got != float64(sideIOs) || sideIOs >= sidePages {
		t.Fatalf("sidefile_write_ios_total = %v, side files issued %d writes for %d pages", got, sideIOs, sidePages)
	}

	// A bounded range: its leaves and nothing beyond them.
	s, err := CreateSnapshotAtLSN(db, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, err := s.CountRows("t", row.Row{row.Int64(1000)}, row.Row{row.Int64(1400)})
	if err != nil || n != 400 {
		t.Fatalf("bounded scan counted %d rows (err %v)", n, err)
	}
	run, _, err := btree.LeafRun(s, root, row.EncodeKey(row.Row{row.Int64(1000)}), row.EncodeKey(row.Row{row.Int64(1400)}))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BatchPages.Load(); got == 0 || got > int64(len(run)) {
		t.Fatalf("bounded scan over %d leaves handed %d to batches", len(run), got)
	}
}

// TestGetManyWritesOnceReadsNone: one GetMany over n changed leaves writes
// them to the side file as one device write of n pages and loads them into
// the snapshot pool without reading one back; nothing stays staged.
func TestGetManyWritesOnceReadsNone(t *testing.T) {
	db := openDB(t, newVClock(), engine.Options{})
	split, _, _ := deepHistory(t, db, 1)
	sideDev := media.New(media.SSD(), nil)
	s, err := CreateSnapshotAtLSN(db, split, sideDev)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("t", row.Row{row.Int64(0)}); err != nil { // root and first leaf
		t.Fatal(err)
	}
	sideDev.Stats.Reset()
	before := s.SidePages()
	var keys []row.Row
	for i := 200; i < 700; i += 10 {
		keys = append(keys, row.Row{row.Int64(int64(i))})
	}
	if _, err := s.GetMany("t", keys); err != nil {
		t.Fatal(err)
	}
	n := s.SidePages() - before
	if n < 2 || s.Stats().BatchPages.Load() != int64(n) {
		t.Fatalf("GetMany materialized %d pages, batches rewound %d", n, s.Stats().BatchPages.Load())
	}
	if w, b := sideDev.Stats.RandWrites.Load(), sideDev.Stats.WriteBytes.Load(); w != 1 || b != int64(n)*page.Size {
		t.Fatalf("GetMany over %d changed leaves: %d side writes of %d B, want 1 of %d B", n, w, b, n*page.Size)
	}
	if r, b := sideDev.Stats.RandReads.Load()+sideDev.Stats.SeqReads.Load(), sideDev.Stats.ReadBytes.Load(); r != 0 || b != 0 {
		t.Fatalf("GetMany read %d pages (%d B) back from the side file", r, b)
	}
	if len(s.staged) != 0 {
		t.Fatalf("%d pages left staged after GetMany", len(s.staged))
	}
}

// TestBatchLeavesNothingParkedOnFailure fails the side-file write of a
// batch and requires the error to surface, no page of the batch to be
// reported as materialized, and nothing to stay staged.
func TestBatchLeavesNothingParkedOnFailure(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	split, leaves, _ := deepHistory(t, db, 2)
	s, err := CreateSnapshotAtLSN(db, split, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	if err := s.prepareBatch(leaves[:4]); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}
	for _, id := range leaves[:4] {
		if !s.side.Has(id) {
			t.Fatalf("page %d of a healthy batch not materialized", id)
		}
	}
	if err := s.side.Close(); err != nil { // every later write fails
		t.Fatal(err)
	}
	if err := s.prepareBatch(leaves[4:12]); err == nil {
		t.Fatal("batch succeeded although its pages could not be written")
	}
	for _, id := range leaves[4:12] {
		if s.side.Has(id) {
			t.Fatalf("page %d reported materialized after a failed batch", id)
		}
	}
	if len(s.staged) != 0 {
		t.Fatalf("%d pages left staged after a failed batch", len(s.staged))
	}
}
