package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage/page"
	"repro/internal/wal"
)

// Key orders for the fill tests and benchmarks. Each returns n distinct
// 8-byte big-endian keys in arrival order.

func ascendingKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i))
	}
	return keys
}

func descendingKeys(n int) [][]byte {
	keys := ascendingKeys(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

func randomKeys(n int) [][]byte {
	keys := ascendingKeys(n)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// runKeys deals n keys from 20 ascending runs (run r owns the keys with r in
// the top byte) in bursts of 5-15 — TPC-C's order_line: twenty districts,
// each appending one order's lines at a time.
func runKeys(n int) [][]byte {
	const runs = 20
	rng := rand.New(rand.NewSource(1))
	next := make([]uint64, runs)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		r := rng.Intn(runs)
		for burst := 5 + rng.Intn(11); burst > 0 && len(keys) < n; burst-- {
			keys = append(keys, binary.BigEndian.AppendUint64(nil, uint64(r)<<56|next[r]))
			next[r]++
		}
	}
	return keys
}

// leafFill is the used share of all leaf pages below the header, as
// asofrig's btree.leaf_fill measures it.
func leafFill(st *memStore) float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var leaves, free int
	for _, p := range st.pages {
		if p.Type() == page.TypeLeaf {
			leaves++
			free += p.FreeSpace()
		}
	}
	return 1 - float64(free)/float64(leaves*(page.Size-48))
}

// loggedBytes sums the payload the store has logged so far.
func loggedBytes(st *memStore) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, r := range st.history {
		n += len(r.OldData) + len(r.NewData)
	}
	return n
}

func fillTree(tb testing.TB, keys [][]byte) *memStore {
	tb.Helper()
	st := newMemStore()
	root, err := Create(st)
	if err != nil {
		tb.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 60) // 2 + 8 + 60 = a 70-byte record
	for _, key := range keys {
		if err := Insert(st, root, key, val); err != nil {
			tb.Fatal(err)
		}
	}
	if n, err := Count(st, root, nil, nil); err != nil || n != len(keys) {
		tb.Fatalf("count = %d, %v; want %d", n, err, len(keys))
	}
	return st
}

// TestLeafFillByKeyOrder pins what the split rule is for: ascending arrivals
// — one run or many interleaved — pack their leaves, and the orders the rule
// does not target stay where a middle split leaves them.
func TestLeafFillByKeyOrder(t *testing.T) {
	const n = 60000
	for _, tc := range []struct {
		name     string
		keys     [][]byte
		min, max float64
	}{
		{"ascending", ascendingKeys(n), 0.95, 1},
		{"runs", runKeys(n), 0.90, 1},
		{"random", randomKeys(n), 0.656, 0.696}, // 0.676 with every split in the middle
		{"descending", descendingKeys(n), 0.49, 0.51},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fill := leafFill(fillTree(t, tc.keys))
			t.Logf("leaf fill %.3f", fill)
			if fill < tc.min || fill > tc.max {
				t.Fatalf("leaf fill %.3f, want %.2f..%.2f", fill, tc.min, tc.max)
			}
		})
	}
}

func benchmarkInsert(b *testing.B, order func(int) [][]byte) {
	const n = 60000
	keys := order(n)
	var st *memStore
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = fillTree(b, keys)
	}
	b.ReportMetric(leafFill(st), "leaf_fill")
	b.ReportMetric(float64(loggedBytes(st))/n, "logB/insert")
}

func BenchmarkInsertAscending(b *testing.B) { benchmarkInsert(b, ascendingKeys) }
func BenchmarkInsertRuns(b *testing.B)      { benchmarkInsert(b, runKeys) }
func BenchmarkInsertRandom(b *testing.B)    { benchmarkInsert(b, randomKeys) }

// countDeletes returns how many slot deletes the store has logged. Forward
// inserts log none of their own, so every one is a row moved by a split.
func countDeletes(st *memStore) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, r := range st.history {
		if r.Type == wal.TypeDelete {
			n++
		}
	}
	return n
}

// An ascending run splits its leaf at slot n: the sibling starts empty and
// the SMO moves no row, so the log carries no delete at all.
func TestAscendingSplitMovesNothing(t *testing.T) {
	st, root := newTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n || stats.Leaves < 20 {
		t.Fatalf("unexpected shape %+v", stats)
	}
	if d := countDeletes(st); d != 0 {
		t.Fatalf("ascending inserts moved %d rows through the log, want 0", d)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := Get(st, root, k(i)); !ok || err != nil {
			t.Fatalf("key %d lost: ok=%v err=%v", i, ok, err)
		}
	}
}

// A run that ends in the middle of a leaf converges after one split: the
// records of the run that follows move out once, the new key goes last on
// the old page, and from then on the run splits at slot n.
func TestRunBoundarySplitConverges(t *testing.T) {
	st, root := newTree(t)
	val := bytes.Repeat([]byte("y"), 200)
	const tail = 10
	for i := 0; i < tail; i++ {
		if err := Insert(st, root, []byte(fmt.Sprintf("b-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := Insert(st, root, []byte(fmt.Sprintf("a-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// The root split re-lays rows without deleting; the one split at the
	// run boundary moved the b- rows; every later split moved nothing.
	if d := countDeletes(st); d != tail {
		t.Fatalf("%d rows moved, want the %d of the following run, once", d, tail)
	}
	if got, err := Count(st, root, nil, nil); err != nil || got != n+tail {
		t.Fatalf("count = %d, %v", got, err)
	}
	if fill := leafFill(st); fill < 0.75 { // a small tree: the root-split halves and the open last leaf weigh in
		t.Fatalf("leaf fill %.3f after convergence", fill)
	}
}

// An internal node that overflows while the descent is into its last child
// gives the new sibling that child alone.
func TestInternalSplitAtLastChild(t *testing.T) {
	st, root := newTree(t)
	// 1 KiB keys: three to a node, so internal levels split early.
	key := func(i int) []byte {
		return append(bytes.Repeat([]byte("k"), 1000), []byte(fmt.Sprintf("%06d", i))...)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := Insert(st, root, key(i), []byte("v")); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	stats, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Height < 3 || stats.Records != n {
		t.Fatalf("unexpected shape %+v", stats)
	}
	// Leaves move nothing; an internal split moves exactly one entry.
	st.mu.Lock()
	var leafMoves, internalMoves int
	for _, r := range st.history {
		if r.Type != wal.TypeDelete {
			continue
		}
		if st.pages[page.ID(r.PageID)].Type() == page.TypeLeaf {
			leafMoves++
		} else {
			internalMoves++
		}
	}
	st.mu.Unlock()
	if leafMoves != 0 {
		t.Fatalf("%d leaf rows moved, want 0", leafMoves)
	}
	if internalMoves == 0 || internalMoves > stats.Internal {
		t.Fatalf("%d internal entries moved across %d internal nodes", internalMoves, stats.Internal)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := Get(st, root, key(i)); !ok || err != nil {
			t.Fatalf("key %d lost: ok=%v err=%v", i, ok, err)
		}
	}
}

// A forward delete that empties a leaf unlinks it from its parent and frees
// the page; the tree stays searchable, scannable and insertable throughout.
func TestDeleteFreesEmptiedLeaf(t *testing.T) {
	st, root := newTree(t)
	const n = 2000
	val := bytes.Repeat([]byte("z"), 150)
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), val); err != nil {
			t.Fatal(err)
		}
	}
	before, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending deletes from the very first key: the leaf under the parent's
	// slot 0 goes first, so the -infinity slot changes hands repeatedly.
	for i := 0; i < 1500; i++ {
		if _, err := Delete(st, root, k(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	after, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != 500 {
		t.Fatalf("records = %d, want 500", after.Records)
	}
	// 1500 of 2000 rows are gone; so are about three quarters of the leaves.
	if after.Leaves > before.Leaves/4+2 {
		t.Fatalf("leaves %d -> %d: emptied leaves were not freed", before.Leaves, after.Leaves)
	}
	st.mu.Lock()
	live := len(st.pages)
	st.mu.Unlock()
	if live != after.Pages {
		t.Fatalf("%d pages allocated, %d reachable: a freed leaf is still allocated or a live one was freed", live, after.Pages)
	}
	// Keys below everything left land in the new first child.
	for i := 0; i < 1500; i += 3 {
		if err := Insert(st, root, k(i), val); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	want := 0
	err = Scan(st, root, nil, nil, func(key, _ []byte) bool {
		for want < 1500 && want%3 != 0 {
			want++
		}
		if string(key) != string(k(want)) {
			t.Fatalf("scan saw %s, want %s", key, k(want))
		}
		want++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != n {
		t.Fatalf("scan ended before key %d", want)
	}
}

// Deleting everything never frees a parent's only child, and undo's delete
// never frees at all.
func TestDeleteKeepsLastChildAndUndoKeepsLeaves(t *testing.T) {
	st, root := newTree(t)
	const n = 600
	val := bytes.Repeat([]byte("z"), 150)
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), val); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := TreeStats(st, root)
	for i := 0; i < n; i++ {
		if err := UndoInsert(st, root, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := TreeStats(st, root); s.Leaves != before.Leaves || s.Records != 0 {
		t.Fatalf("undo deletes changed the shape: %+v -> %+v", before, s)
	}
	// Refill, then delete forward: all leaves but one go.
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 1; i >= 0; i-- {
		if _, err := Delete(st, root, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 0 || s.Leaves != 1 || s.Height != 2 {
		t.Fatalf("emptied tree shape %+v, want one empty leaf under the root", s)
	}
	if err := Insert(st, root, k(7), val); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Get(st, root, k(7)); !ok || err != nil {
		t.Fatalf("get after refill: ok=%v err=%v", ok, err)
	}
}
