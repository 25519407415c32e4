package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage/page"
)

// fetchLog is a memStore that records the leaves fetched through it.
type fetchLog struct {
	*memStore
	leaves []page.ID
}

func (f *fetchLog) Fetch(id page.ID, excl bool) (Handle, error) {
	h, err := f.memStore.Fetch(id, excl)
	if err == nil && h.Page().Level() == 0 {
		f.leaves = append(f.leaves, id)
	}
	return h, err
}

// TestLeafOfAndLeafRunNameTheLeavesAScanVisits builds a three-level tree and
// checks the two read-only helpers against the descents they predict: LeafOf
// names the leaf Get fetches, LeafRun — continued from the key it returns —
// names the leaves Scan fetches, in order, for bounded, unbounded and empty
// ranges; neither fetches a leaf itself.
func TestLeafOfAndLeafRunNameTheLeavesAScanVisits(t *testing.T) {
	mem, root := newTree(t)
	if id, err := LeafOf(mem, root, k(1)); err != nil || id != page.InvalidID {
		t.Fatalf("LeafOf on a root leaf = %d, %v", id, err)
	}
	if run, next, err := LeafRun(mem, root, nil, nil); err != nil || run != nil || next != nil {
		t.Fatalf("LeafRun on a root leaf = %v, %q, %v", run, next, err)
	}
	const n = 8000
	val := bytes.Repeat([]byte("v"), 380)
	for _, i := range rand.New(rand.NewSource(5)).Perm(n) {
		if err := Insert(mem, root, k(2*i), val); err != nil { // odd keys stay absent
			t.Fatal(err)
		}
	}
	if s, err := TreeStats(mem, root); err != nil || s.Height < 3 {
		t.Fatalf("tree height %d (err %v), want 3 levels", s.Height, err)
	}
	st := &fetchLog{memStore: mem}

	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		key := k(rng.Intn(2*n + 10))
		st.leaves = nil
		want, err := LeafOf(st, root, key)
		if err != nil || len(st.leaves) != 0 {
			t.Fatalf("LeafOf(%s): err %v, fetched leaves %v", key, err, st.leaves)
		}
		if _, _, err := Get(st, root, key); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.leaves, []page.ID{want}) {
			t.Fatalf("LeafOf(%s) = %d, Get fetched %v", key, want, st.leaves)
		}
	}

	ranges := [][2][]byte{{nil, nil}, {nil, k(700)}, {k(15000), nil}, {k(500), k(500)}, {k(900), k(100)}}
	for trial := 0; trial < 100; trial++ {
		a := rng.Intn(2 * n)
		ranges = append(ranges, [2][]byte{k(a), k(a + rng.Intn(3000))})
	}
	for _, r := range ranges {
		from, to := r[0], r[1]
		st.leaves = nil
		var predicted []page.ID
		for at := from; ; {
			run, next, err := LeafRun(st, root, at, to)
			if err != nil || len(run) == 0 {
				t.Fatalf("LeafRun(%s, %s): %d leaves, err %v", at, to, len(run), err)
			}
			for i, l := range run {
				if i > 0 && bytes.Compare(l.Low, run[i-1].Low) <= 0 {
					t.Fatalf("LeafRun(%s, %s): separators not ascending at %d", at, to, i)
				}
				predicted = append(predicted, l.ID)
			}
			if next == nil {
				break
			}
			at = next
		}
		if len(st.leaves) != 0 {
			t.Fatalf("LeafRun(%s, %s) fetched leaves %v", from, to, st.leaves)
		}
		if err := Scan(st, root, from, to, func(_, _ []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.leaves, predicted) {
			t.Fatalf("range [%s, %s): LeafRun named %d leaves %v, Scan fetched %d %v",
				from, to, len(predicted), predicted, len(st.leaves), st.leaves)
		}
	}
}
