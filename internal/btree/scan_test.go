package btree

import (
	"bytes"
	"testing"

	"repro/internal/storage/page"
)

// fetchCache is a memStore whose Fetch hands out one handle per page, made
// on the page's first fetch, so that what a scan allocates is the scan's own.
type fetchCache struct {
	*memStore
	handles map[page.ID]*memHandle
}

func (c *fetchCache) Fetch(id page.ID, excl bool) (Handle, error) {
	h, ok := c.handles[id]
	if !ok {
		got, err := c.memStore.Fetch(id, excl)
		if err != nil {
			return nil, err
		}
		h = got.(*memHandle)
		c.handles[id] = h
	}
	h.released = false
	return h, nil
}

// scanVal is key i's value: 1 to 200 bytes, varying from key to key.
func scanVal(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 1+(i*37)%200) }

// scanTree builds a tree of n ascending keys with values of varying length
// and returns it with the first key of each of its leaves, in order.
func scanTree(tb testing.TB, n int) (*fetchCache, page.ID, []int) {
	tb.Helper()
	st := &fetchCache{memStore: newMemStore(), handles: map[page.ID]*memHandle{}}
	root, err := Create(st)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := Insert(st, root, k(i), scanVal(i)); err != nil {
			tb.Fatal(err)
		}
	}
	var firsts []int
	last := page.InvalidID
	for i := 0; i < n; i++ {
		id, err := LeafOf(st, root, k(i))
		if err != nil {
			tb.Fatal(err)
		}
		if id != last {
			firsts, last = append(firsts, i), id
		}
	}
	return st, root, firsts
}

// TestScanHandsEveryPairIntact scans a tree of many leaves whose values vary
// in length: fn sees every pair in order, with its bytes intact, although
// the scan copies each leaf into the buffer the leaf before it used. An
// append to a key inside fn must not reach its value.
func TestScanHandsEveryPairIntact(t *testing.T) {
	const n = 600
	st, root, firsts := scanTree(t, n)
	if len(firsts) < 8 {
		t.Fatalf("tree has %d leaves, want >= 8", len(firsts))
	}
	for _, r := range []struct{ from, to int }{{0, n}, {firsts[1] + 3, firsts[6] + 5}} {
		i := r.from
		err := Scan(st, root, k(r.from), k(r.to), func(key, val []byte) bool {
			_ = append(key, 'X')
			if !bytes.Equal(key, k(i)) || !bytes.Equal(val, scanVal(i)) {
				t.Fatalf("pair %d: %q = %d bytes, want %q = %d bytes", i, key, len(val), k(i), len(scanVal(i)))
			}
			i++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != r.to {
			t.Fatalf("scan of [%d, %d) ended at %d", r.from, r.to, i)
		}
	}

	// Once the buffer fits the fullest leaf so far, a further leaf costs the
	// scan one allocation: the separator its descent starts from. Its pairs
	// reuse the buffer.
	allocs := func(leaves int) float64 {
		to := k(firsts[leaves])
		return testing.AllocsPerRun(20, func() {
			if err := Scan(st, root, nil, to, func(_, _ []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
	}
	four, eight := allocs(4), allocs(8)
	if extra := eight - four; extra > 4 {
		t.Fatalf("4 more leaves cost %.0f more allocations (%.0f -> %.0f), want <= 4", extra, four, eight)
	}
}

// BenchmarkScanLeaves scans eight full leaves of a tree whose values vary
// in length.
func BenchmarkScanLeaves(b *testing.B) {
	st, root, firsts := scanTree(b, 600)
	from, to := k(firsts[0]), k(firsts[8])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Scan(st, root, from, to, func(_, _ []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != firsts[8] {
			b.Fatalf("scanned %d pairs, want %d", n, firsts[8])
		}
	}
}
