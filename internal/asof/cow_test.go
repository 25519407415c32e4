package asof

import (
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
)

// The tests in this file hold the side file to copy-on-write: a snapshot
// materializes only the pages its chain walks changed, and serves every other
// page from the primary. Answers are checked against the versioned map of
// TestAsOfOracle, which knows nothing of pages or side files.

// evictionRows fills far more leaves than a snapshot pool holds (about 19
// rows to a leaf), so reading the table evicts whatever was read before.
const evictionRows = 40 * snapshotFrames

// commitRows writes rows with write in one transaction and records them in
// the model at the commit's instant, which it returns.
func commitRows(t *testing.T, db *engine.DB, clock *vclock, o *oracle, rows []row.Row, write func(*engine.Txn, row.Row) error) time.Time {
	t.Helper()
	at := clock.Advance(time.Second)
	exec(t, db, func(tx *engine.Txn) error {
		for _, r := range rows {
			if err := write(tx, r); err != nil {
				return err
			}
		}
		return nil
	})
	for _, r := range rows {
		k := oracleKey{"t", int(r[0].Int)}
		o.history[k] = append(o.history[k], version{at: at, r: r})
	}
	return at
}

// bodyRows returns rows lo..hi-1 with the given body.
func bodyRows(lo, hi int, body string) []row.Row {
	rows := make([]row.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, testRow(i, body, i))
	}
	return rows
}

func insertRow(tx *engine.Txn, r row.Row) error { return tx.Insert("t", r) }
func updateRow(tx *engine.Txn, r row.Row) error { return tx.Update("t", r) }

// checkRows compares Get of each id on s with the model as of at.
func checkRows(t *testing.T, s *Snapshot, o *oracle, at time.Time, ids []int) {
	t.Helper()
	want := o.asOf("t", at)
	for _, id := range ids {
		got, _, err := s.Get("t", row.Row{row.Int64(int64(id))})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRow(got, want[id]) {
			t.Fatalf("row %d = %v, the model has %v", id, got, want[id])
		}
	}
}

// leafOfID returns the leaf holding id in the table rooted at root.
func leafOfID(t *testing.T, st btree.Store, root page.ID, id int) page.ID {
	t.Helper()
	leaf, err := btree.LeafOf(st, root, row.EncodeKey(row.Row{row.Int64(int64(id))}))
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// evictByScan reads ids [from, evictionRows) through s, which loads more
// leaves than its pool holds.
func evictByScan(t *testing.T, s *Snapshot, from int) {
	t.Helper()
	n := 0
	if err := s.Scan("t", row.Row{row.Int64(int64(from))}, nil, func(row.Row) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != evictionRows-from {
		t.Fatalf("eviction scan read %d rows, want %d", n, evictionRows-from)
	}
}

// TestCopyOnWriteRereadAfterPrimaryUpdate: a page served with nothing to undo
// keeps no side-file copy. When the primary later changes it and the
// snapshot pool drops it, its next read rewinds it, once.
func TestCopyOnWriteRereadAfterPrimaryUpdate(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{BufferFrames: 4096})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	o := &oracle{history: map[oracleKey][]version{}}
	for lo := 0; lo < evictionRows; lo += 2000 {
		commitRows(t, db, clock, o, bodyRows(lo, min(lo+2000, evictionRows), smoBody), insertRow)
	}
	past := clock.Advance(time.Minute)
	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := []int{3, 4, 5}
	checkRows(t, s, o, past, ids)
	if n, side := s.Stats().PagesPrepared.Load(), s.SidePages(); n != 0 || side != 0 {
		t.Fatalf("nothing changed since the split, yet %d pages rewound and %d in the side file", n, side)
	}
	if s.Stats().PagesShared.Load() == 0 {
		t.Fatal("no page counted as shared with the primary")
	}

	// The primary changes the rows on that leaf; the snapshot still holds
	// the leaf as of the split, then drops it.
	commitRows(t, db, clock, o, bodyRows(3, 6, "later"), updateRow)
	evictByScan(t, s, 1000)
	prepared := s.Stats().PagesPrepared.Load()
	checkRows(t, s, o, past, ids)
	if got := s.Stats().PagesPrepared.Load() - prepared; got != 1 {
		t.Fatalf("re-read of the changed leaf rewound %d pages, want 1", got)
	}
	if side := s.SidePages(); side != 1 {
		t.Fatalf("side file holds %d pages, want the one rewound leaf", side)
	}
	// Dropped again, the leaf is read back from the side file, not rewound.
	evictByScan(t, s, 1000)
	checkRows(t, s, o, past, ids)
	if got := s.Stats().PagesPrepared.Load() - prepared; got != 1 {
		t.Fatalf("a rewound leaf was rewound again (%d)", got)
	}
	shared := s.Stats().PagesShared.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := metric(db, "asof_pages_shared_total"); got != float64(shared) {
		t.Fatalf("asof_pages_shared_total = %v, the snapshot counted %d", got, shared)
	}
	if got := metric(db, "sidefile_read_ios_total"); got != 1 {
		t.Fatalf("sidefile_read_ios_total = %v, want the one re-read of the rewound leaf", got)
	}
}

// TestCopyOnWriteGetManyMixedLeaves: a GetMany over leaves of which every
// other one changed after the split rewinds and materializes exactly the
// changed ones, and reads the others from the primary.
func TestCopyOnWriteGetManyMixedLeaves(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	o := &oracle{history: map[oracleKey][]version{}}
	const rows = 720
	commitRows(t, db, clock, o, bodyRows(0, rows, smoBody), insertRow)
	past := clock.Advance(time.Minute)

	// Group the ids by leaf, in key order, and change one row on every
	// other leaf — by the same number of bytes, so no leaf splits.
	var leaves []page.ID
	byLeaf := map[page.ID][]int{}
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		for id := 0; id < rows; id++ {
			leaf := leafOfID(t, tx, tbl.Root, id)
			if len(byLeaf[leaf]) == 0 {
				leaves = append(leaves, leaf)
			}
			byLeaf[leaf] = append(byLeaf[leaf], id)
		}
		return nil
	})
	if len(leaves) < 20 || len(leaves) > maxBatchLeaves {
		t.Fatalf("table has %d leaves", len(leaves))
	}
	var changed []row.Row
	for i := 0; i < len(leaves); i += 2 {
		id := byLeaf[leaves[i]][0]
		changed = append(changed, testRow(id, smoBody[1:]+"C", -id))
	}
	commitRows(t, db, clock, o, changed, updateRow)

	s, err := CreateSnapshot(db, past, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]row.Row, rows)
	for id := range keys {
		keys[id] = row.Row{row.Int64(int64(id))}
	}
	got, err := s.GetMany("t", keys)
	if err != nil {
		t.Fatal(err)
	}
	want := o.asOf("t", past)
	for id := range keys {
		if !sameRow(got[id], want[id]) {
			t.Fatalf("row %d = %v, the model has %v", id, got[id], want[id])
		}
	}
	if side, batched := s.SidePages(), s.Stats().BatchPages.Load(); side != len(changed) || batched != int64(len(changed)) {
		t.Fatalf("%d of %d leaves changed: side file holds %d pages, batches rewound %d",
			len(changed), len(leaves), side, batched)
	}
	if n := s.Stats().PagesPrepared.Load(); n != int64(len(changed)) {
		t.Fatalf("%d pages rewound, want %d", n, len(changed))
	}
}

// TestCopyOnWriteUndoFixedPageReachesSideFile: a leaf whose only change is
// an in-flight transaction's — its pageLSN at or below the split, so the
// snapshot reads it with nothing to rewind — is fixed by the background
// undo, and that fix reaches the side file when the pool evicts the leaf:
// its next read must not fall through to the primary's uncommitted copy.
func TestCopyOnWriteUndoFixedPageReachesSideFile(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{BufferFrames: 4096})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	o := &oracle{history: map[oracleKey][]version{}}
	for lo := 0; lo < evictionRows; lo += 2000 {
		commitRows(t, db, clock, o, bodyRows(lo, min(lo+2000, evictionRows), smoBody), insertRow)
	}
	at := clock.Advance(time.Minute)

	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Rollback()
	ids := []int{7, 8}
	for _, id := range ids {
		if err := inflight.Update("t", testRow(id, "uncommitted", -1)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Point().ATT) != 1 {
		t.Fatalf("ATT = %+v, want the in-flight transaction", s.Point().ATT)
	}
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafOfID(t, s, tbl.Root, ids[0])
	if s.side.Has(leaf) {
		t.Fatal("the undone leaf reached the side file before it was evicted")
	}

	evictByScan(t, s, 1000)
	if !s.side.Has(leaf) {
		t.Fatal("the evicted leaf the undo fixed is not in the side file")
	}
	checkRows(t, s, o, at, ids)
	if n := s.Stats().PagesPrepared.Load(); n != 0 {
		t.Fatalf("%d pages rewound, but nothing changed after the split", n)
	}
}

// TestUndoFixedPageWinsOverBatch: a leaf the §5.2 background undo fixed
// keeps that fix in the side file whatever a batch rewind copies of it. The
// primary changes the leaf after the split, so a batch covering it rewinds
// the primary's copy, which still holds the in-flight transaction's
// uncommitted rows. Batched while the fixed frame is resident, the batch's
// copy is written and then replaced by the frame's eviction; batched after
// that eviction, the leaf is left out.
func TestUndoFixedPageWinsOverBatch(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{BufferFrames: 4096})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	o := &oracle{history: map[oracleKey][]version{}}
	for lo := 0; lo < evictionRows; lo += 2000 {
		commitRows(t, db, clock, o, bodyRows(lo, min(lo+2000, evictionRows), smoBody), insertRow)
	}
	at := clock.Advance(time.Minute)

	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Rollback()
	for _, id := range []int{7, 8} {
		if err := inflight.Update("t", testRow(id, "uncommitted", -1)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafOfID(t, s, tbl.Root, 7)
	if leafOfID(t, s, tbl.Root, 6) != leaf || s.side.Has(leaf) {
		t.Fatal("want rows 6 and 7 on one leaf, fixed in the pool and not yet in the side file")
	}

	// getMany batches the leaves of ids and checks its rows, then every
	// row read again after the snapshot pool dropped the fixed leaf.
	getMany := func(ids []int, wantBatched int64) {
		t.Helper()
		keys := make([]row.Row, len(ids))
		for i, id := range ids {
			keys[i] = row.Row{row.Int64(int64(id))}
		}
		batched := s.Stats().BatchPages.Load()
		got, err := s.GetMany("t", keys)
		if err != nil {
			t.Fatal(err)
		}
		want := o.asOf("t", at)
		for i, id := range ids {
			if !sameRow(got[i], want[id]) {
				t.Fatalf("row %d = %v, the model has %v", id, got[i], want[id])
			}
		}
		if n := s.Stats().BatchPages.Load() - batched; n != wantBatched {
			t.Fatalf("the batch rewound %d pages, want %d", n, wantBatched)
		}
		evictByScan(t, s, 1000)
		checkRows(t, s, o, at, []int{6, 7, 8})
	}
	commitRows(t, db, clock, o, []row.Row{testRow(6, "later", 6), testRow(500, "later", 500)}, updateRow)
	getMany([]int{6, 7, 8, 500}, 2)
	commitRows(t, db, clock, o, []row.Row{testRow(5, "again", 5), testRow(1000, "again", 1000), testRow(2000, "again", 2000)}, updateRow)
	getMany([]int{5, 7, 1000, 2000}, 2)
}
