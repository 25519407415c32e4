package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage/page"
)

func k(i int) []byte            { return []byte(fmt.Sprintf("key-%08d", i)) }
func v(i int) []byte            { return []byte(fmt.Sprintf("val-%d", i)) }
func kv(i int) ([]byte, []byte) { return k(i), v(i) }

func newTree(t *testing.T) (*memStore, page.ID) {
	t.Helper()
	st := newMemStore()
	root, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, root
}

func TestInsertGet(t *testing.T) {
	st, root := newTree(t)
	for i := 0; i < 100; i++ {
		if err := Insert(st, root, k(i), v(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		got, ok, err := Get(st, root, k(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d = %q, want %q", i, got, v(i))
		}
	}
	if _, ok, _ := Get(st, root, []byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestDuplicateInsertFails(t *testing.T) {
	st, root := newTree(t)
	if err := Insert(st, root, k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	if err := Insert(st, root, k(1), v(2)); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate insert: %v, want ErrKeyExists", err)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	st, root := newTree(t)
	Insert(st, root, k(1), v(1))
	if err := Update(st, root, k(1), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := Get(st, root, k(1))
	if string(got) != "updated" {
		t.Fatalf("after update: %q", got)
	}
	old, err := Delete(st, root, k(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(old) != "updated" {
		t.Fatalf("delete returned %q", old)
	}
	if _, ok, _ := Get(st, root, k(1)); ok {
		t.Fatal("deleted key still present")
	}
	if err := Update(st, root, k(1), v(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if _, err := Delete(st, root, k(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestSizeLimits(t *testing.T) {
	st, root := newTree(t)
	if err := Insert(st, root, nil, v(1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	if err := Insert(st, root, make([]byte, MaxKeySize+1), v(1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("huge key: %v", err)
	}
	if err := Insert(st, root, k(1), make([]byte, MaxRecSize)); !errors.Is(err, ErrRecTooLarge) {
		t.Fatalf("huge value: %v", err)
	}
}

func TestSplitGrowsTreeKeepingRootStable(t *testing.T) {
	st, root := newTree(t)
	n := 3000
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	stats, err := TreeStats(st, root)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Height < 2 {
		t.Fatalf("tree did not grow: %+v", stats)
	}
	if stats.Records != n {
		t.Fatalf("records = %d, want %d", stats.Records, n)
	}
	// The root id never changed: fetching it works and it is internal now.
	h, err := st.Fetch(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Page().Type() != page.TypeInternal {
		t.Fatalf("root type = %v", h.Page().Type())
	}
	h.Release()
	// Every key still reachable.
	for i := 0; i < n; i += 97 {
		if _, ok, err := Get(st, root, k(i)); !ok || err != nil {
			t.Fatalf("key %d lost after splits: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestSplitLogsInsertsThenDeletesWithImages(t *testing.T) {
	st, root := newTree(t)
	// Fill until the first split happens (root reformat observed).
	for i := 0; ; i++ {
		if err := Insert(st, root, k(i), bytes.Repeat([]byte("y"), 200)); err != nil {
			t.Fatal(err)
		}
		hist := st.pageHistory(root)
		if len(hist) > 0 && hist[len(hist)-1].Type == 0 {
			continue
		}
		done := false
		for _, r := range hist {
			if r.Type == 20 /* TypeFormat */ && r.PrevPageLSN != 0 {
				done = true
			}
		}
		if done {
			break
		}
		if i > 200 {
			t.Fatal("no root split after 200 large inserts")
		}
	}
	// The root history must contain a preformat carrying the full image
	// immediately before the reformat.
	hist := st.pageHistory(root)
	sawPreformat := false
	for i, r := range hist {
		if r.Type == 21 /* TypePreformat */ {
			sawPreformat = true
			if len(r.OldData) != page.Size {
				t.Fatalf("preformat image is %d bytes", len(r.OldData))
			}
			if i+1 >= len(hist) || hist[i+1].Type != 20 {
				t.Fatal("preformat not followed by format")
			}
		}
	}
	if !sawPreformat {
		t.Fatal("root split did not log a preformat record")
	}
	// Moves: every delete record in the history carries the row image.
	for _, r := range st.history {
		if r.Type == 11 /* TypeDelete */ && len(r.OldData) == 0 {
			t.Fatal("SMO delete without undo image")
		}
	}
}

func TestScanFullAndRange(t *testing.T) {
	st, root := newTree(t)
	n := 1000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if err := Insert(st, root, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	err := Scan(st, root, nil, nil, func(key, val []byte) bool {
		keys = append(keys, string(key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("full scan returned %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan not in key order")
	}
	// Range scan [k(100), k(200)).
	var got []string
	err = Scan(st, root, k(100), k(200), func(key, val []byte) bool {
		got = append(got, string(key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != string(k(100)) || got[99] != string(k(199)) {
		t.Fatalf("range scan: %d keys, first=%s last=%s", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	count := 0
	Scan(st, root, nil, nil, func(key, val []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop count = %d", count)
	}
}

func TestScanSkipsEmptyLeaves(t *testing.T) {
	st, root := newTree(t)
	n := 2000
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), bytes.Repeat([]byte("z"), 150)); err != nil {
			t.Fatal(err)
		}
	}
	// Hollow out a middle range entirely. UndoInsert is the delete that
	// leaves emptied leaves in place (a forward Delete frees them).
	for i := 500; i < 1500; i++ {
		if err := UndoInsert(st, root, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Count(st, root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Fatalf("count after hollowing = %d, want 1000", got)
	}
	// The scan must bridge the empty region in order.
	var last string
	err = Scan(st, root, k(400), k(1600), func(key, _ []byte) bool {
		if last != "" && string(key) <= last {
			t.Fatalf("out of order: %s after %s", key, last)
		}
		last = string(key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != string(k(1599)) {
		t.Fatalf("scan ended at %s", last)
	}
}

func TestUpdateGrowTriggersDeleteInsert(t *testing.T) {
	st, root := newTree(t)
	// Fill a page nearly full, then grow one record beyond in-place space.
	for i := 0; i < 40; i++ {
		if err := Insert(st, root, k(i), bytes.Repeat([]byte("a"), 180)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 1500)
	if err := Update(st, root, k(20), big); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := Get(st, root, k(20))
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("grown update lost")
	}
	// All other records intact.
	for i := 0; i < 40; i++ {
		if i == 20 {
			continue
		}
		if _, ok, _ := Get(st, root, k(i)); !ok {
			t.Fatalf("record %d lost after grow-update", i)
		}
	}
}

func TestDropFreesAllPages(t *testing.T) {
	st, root := newTree(t)
	for i := 0; i < 2000; i++ {
		Insert(st, root, k(i), bytes.Repeat([]byte("q"), 100))
	}
	before, _ := TreeStats(st, root)
	if before.Pages < 3 {
		t.Fatalf("tree too small to be interesting: %+v", before)
	}
	if err := Drop(st, root); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	remaining := len(st.pages)
	st.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d pages leaked after drop", remaining)
	}
}

func TestUndoHelpersRelocateByKey(t *testing.T) {
	st, root := newTree(t)
	for i := 0; i < 10; i++ {
		Insert(st, root, k(i), v(i))
	}
	// Logical undo of an insert removes by key.
	if err := UndoInsert(st, root, k(5)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := Get(st, root, k(5)); ok {
		t.Fatal("UndoInsert left the key")
	}
	// Logical undo of a delete reinserts.
	if err := UndoDelete(st, root, k(5), v(5)); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := Get(st, root, k(5)); !ok || !bytes.Equal(got, v(5)) {
		t.Fatal("UndoDelete did not restore")
	}
	// Logical undo of an update restores the prior value.
	Update(st, root, k(5), []byte("new"))
	if err := UndoUpdate(st, root, k(5), v(5)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := Get(st, root, k(5)); !bytes.Equal(got, v(5)) {
		t.Fatalf("UndoUpdate left %q", got)
	}
}

// TestQuickTreeMatchesMap drives random operations against the tree and a
// map model; contents must agree at the end, scanned in sorted order.
func TestQuickTreeMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := newMemStore()
		root, err := Create(st)
		if err != nil {
			t.Log(err)
			return false
		}
		model := make(map[string]string)
		for op := 0; op < 800; op++ {
			key := fmt.Sprintf("k%04d", rng.Intn(300))
			val := fmt.Sprintf("v%d-%d", op, rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				err := Insert(st, root, []byte(key), []byte(val))
				if _, exists := model[key]; exists {
					if !errors.Is(err, ErrKeyExists) {
						t.Logf("seed %d: dup insert err=%v", seed, err)
						return false
					}
				} else if err != nil {
					t.Logf("seed %d: insert err=%v", seed, err)
					return false
				} else {
					model[key] = val
				}
			case 1:
				err := Update(st, root, []byte(key), []byte(val))
				if _, exists := model[key]; exists {
					if err != nil {
						t.Logf("seed %d: update err=%v", seed, err)
						return false
					}
					model[key] = val
				} else if !errors.Is(err, ErrKeyNotFound) {
					t.Logf("seed %d: update missing err=%v", seed, err)
					return false
				}
			case 2:
				_, err := Delete(st, root, []byte(key))
				if _, exists := model[key]; exists {
					if err != nil {
						t.Logf("seed %d: delete err=%v", seed, err)
						return false
					}
					delete(model, key)
				} else if !errors.Is(err, ErrKeyNotFound) {
					t.Logf("seed %d: delete missing err=%v", seed, err)
					return false
				}
			}
		}
		// Compare full scans.
		want := make([]string, 0, len(model))
		for key := range model {
			want = append(want, key)
		}
		sort.Strings(want)
		i := 0
		ok := true
		Scan(st, root, nil, nil, func(key, val []byte) bool {
			if i >= len(want) || string(key) != want[i] || string(val) != model[want[i]] {
				ok = false
				return false
			}
			i++
			return true
		})
		if !ok || i != len(want) {
			t.Logf("seed %d: scan mismatch at %d of %d", seed, i, len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRecCodec(t *testing.T) {
	rec := EncodeLeafRec([]byte("key"), []byte("value"))
	key, val := DecodeLeafRec(rec)
	if string(key) != "key" || string(val) != "value" {
		t.Fatalf("leaf rec codec: %q %q", key, val)
	}
	irec := encodeInternalRec([]byte("sep"), 42)
	ikey, child := decodeInternalRec(irec)
	if string(ikey) != "sep" || child != 42 {
		t.Fatalf("internal rec codec: %q %d", ikey, child)
	}
}
