package btree

import (
	"bytes"
	"testing"

	"repro/internal/storage/page"
	"repro/internal/wal"
)

// TestUnevenRecordsNeverLogAnOpThatDoesNotFit: with records of very uneven
// size a split in the middle by count can leave the half the new key falls in
// too full for it, and an update can outgrow its page. Both used to reach the
// store — which logs first and applies second, so the log held a record no
// recovery or replica could redo. Neither may: the insert splits again, the
// update takes the delete + insert path before anything is logged.
func TestUnevenRecordsNeverLogAnOpThatDoesNotFit(t *testing.T) {
	tiny, big := []byte("t"), bytes.Repeat([]byte("B"), 1000)
	// redoable replays the store's log onto empty pages, as a replica would.
	redoable := func(st *memStore) {
		t.Helper()
		replica := map[uint32]*page.Page{}
		for _, r := range st.history {
			if replica[r.PageID] == nil {
				replica[r.PageID] = page.New()
			}
			if err := wal.Redo(replica[r.PageID], r); err != nil {
				t.Fatalf("the log holds a record that cannot be redone: %v", err)
			}
		}
	}

	// Eight 900-byte records leave a leaf 800 bytes of room; one of them
	// more than doubles.
	st, root := newTree(t)
	for i := 7; i >= 0; i-- {
		if err := Insert(st, root, k(i), big[:900]); err != nil {
			t.Fatal(err)
		}
	}
	if err := Update(st, root, k(3), bytes.Repeat([]byte("G"), 2000)); err != nil {
		t.Fatalf("update that outgrows its leaf: %v", err)
	}
	if got, ok, _ := Get(st, root, k(3)); !ok || len(got) != 2000 {
		t.Fatal("updated record missing")
	}
	redoable(st)

	// Built from the right, so that no insert continues an ascending run
	// (those split at the insertion point): seven big records, then tiny
	// ones below them until the leaf is full. The next big record lands
	// among the big ones, in the upper half by count.
	st, root = newTree(t)
	for i := 6; i >= 0; i-- {
		if err := Insert(st, root, k(1000+10*i), big); err != nil {
			t.Fatal(err)
		}
	}
	for i := 79; i >= 0; i-- {
		if err := Insert(st, root, k(i), tiny); err != nil {
			t.Fatal(err)
		}
	}
	if err := Insert(st, root, k(1035), big); err != nil {
		t.Fatalf("insert among big records: %v", err)
	}
	if got, ok, _ := Get(st, root, k(1035)); !ok || !bytes.Equal(got, big) {
		t.Fatal("inserted record missing")
	}
	redoable(st)
}
