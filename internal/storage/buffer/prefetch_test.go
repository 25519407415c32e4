package buffer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/storage/page"
)

// readRunSource is a memSource that also reads runs (a RunReader), recording
// each call's first page and length. failRun makes ReadRun fail; a non-nil
// gate makes it signal started and wait for gate to close before reading.
type readRunSource struct {
	*memSource
	runs    [][2]int // {first, pages} per ReadRun call
	failRun bool
	started chan struct{}
	gate    chan struct{}
}

func (r *readRunSource) ReadRun(first page.ID, bufs [][]byte) error {
	r.mu.Lock()
	r.runs = append(r.runs, [2]int{int(first), len(bufs)})
	fail, gate := r.failRun, r.gate
	r.mu.Unlock()
	if gate != nil {
		r.started <- struct{}{}
		<-gate
	}
	if fail {
		return errors.New("injected run read failure")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range bufs {
		src, ok := r.pages[first+page.ID(i)]
		if !ok {
			return fmt.Errorf("readrunsource: no page %d", first+page.ID(i))
		}
		copy(b, src)
	}
	return nil
}

func (r *readRunSource) calls() [][2]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][2]int(nil), r.runs...)
}

// newReadRunPool returns a pool of frames over a RunReader holding pages
// 0..pages-1, each checksummed when checksums is set.
func newReadRunPool(t *testing.T, frames, pages int, checksums bool) (*Pool, *readRunSource) {
	t.Helper()
	src := &readRunSource{memSource: newMemSource()}
	for id := page.ID(0); id < page.ID(pages); id++ {
		src.seed(id)
		if checksums {
			p := page.FromBytes(src.pages[id])
			p.WriteChecksum()
		}
	}
	pool := New(Config{Frames: frames, Source: src, Checksums: checksums})
	if pool.reads == nil {
		t.Fatal("pool did not resolve its source as a RunReader")
	}
	return pool, src
}

// mustHold fetches id and checks it holds the seeded page's row.
func mustHold(t *testing.T, pool *Pool, id page.ID) {
	t.Helper()
	h, err := pool.Fetch(id, false)
	if err != nil {
		t.Fatalf("fetch %d: %v", id, err)
	}
	defer h.Release()
	if got, want := string(h.Page().MustGet(0)), fmt.Sprintf("page-%d", id); got != want {
		t.Fatalf("page %d holds %q, want %q", id, got, want)
	}
}

// TestPrefetchFreeFramesOnly: Prefetch reads each run of consecutive ids
// with one read, capped at maxReadRun pages, into frames no page has used,
// and the pages are then hits. Once every frame has been used it reads
// nothing and evicts nothing.
func TestPrefetchFreeFramesOnly(t *testing.T) {
	pool, src := newReadRunPool(t, 32, 64, false)
	if pool.Shards() != 1 {
		t.Fatalf("%d shards, want 1", pool.Shards())
	}
	pool.Prefetch([]page.ID{11, 3, 1, 2, 10, 2})
	if got := fmt.Sprint(src.calls()); got != "[[1 3] [10 2]]" {
		t.Fatalf("ReadRun calls = %s, want [[1 3] [10 2]]", got)
	}
	if st := pool.Stats(); st.Reads != 5 || st.ReadIOs != 2 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("after Prefetch: %+v, want 5 reads in 2 I/Os, no misses or evictions", st)
	}
	for _, id := range []page.ID{1, 2, 3, 10, 11} {
		mustHold(t, pool, id)
	}
	if st := pool.Stats(); st.Hits != 5 || st.Misses != 0 || src.reads != 0 {
		t.Fatalf("fetches of prefetched pages: %d hits, %d misses, %d page reads; want 5, 0, 0", st.Hits, st.Misses, src.reads)
	}
	// A resident page splits a run; a page already read is not read again.
	pool.Prefetch([]page.ID{12, 10, 13, 9})
	if got := fmt.Sprint(src.calls()[2:]); got != "[[9 1] [12 2]]" {
		t.Fatalf("ReadRun calls around resident page 10 and 11 = %s, want [[9 1] [12 2]]", got)
	}

	// Fill the pool: the remaining 24 frames are taken by fetches.
	for id := page.ID(20); id < 44; id++ {
		mustHold(t, pool, id)
	}
	before, calls := pool.Stats(), len(src.calls())
	pool.Prefetch([]page.ID{50, 51, 52, 53})
	after := pool.Stats()
	if len(src.calls()) != calls || after.Reads != before.Reads || after.Evictions != before.Evictions {
		t.Fatalf("Prefetch on a full pool: %d more run reads, %d more pages read, %d more evictions; want none",
			len(src.calls())-calls, after.Reads-before.Reads, after.Evictions-before.Evictions)
	}
	if pool.Resident() != 32 {
		t.Fatalf("%d pages resident, want 32", pool.Resident())
	}
}

// TestPrefetchRunsCrossShards: a run's pages live in different shards of a
// sharded pool; it is still read with one read per maxReadRun pages.
func TestPrefetchRunsCrossShards(t *testing.T) {
	pool, src := newReadRunPool(t, 512, 40, false)
	if pool.Shards() < 2 {
		t.Fatalf("%d shards, want several", pool.Shards())
	}
	ids := make([]page.ID, 40)
	for i := range ids {
		ids[i] = page.ID(i)
	}
	pool.Prefetch(ids)
	if got := fmt.Sprint(src.calls()); got != "[[0 16] [16 16] [32 8]]" {
		t.Fatalf("ReadRun calls = %s, want [[0 16] [16 16] [32 8]]", got)
	}
	for id := page.ID(0); id < 40; id++ {
		mustHold(t, pool, id)
	}
	if st := pool.Stats(); st.Misses != 0 || st.Reads != 40 || st.ReadIOs != 3 {
		t.Fatalf("stats %+v, want 40 pages read in 3 I/Os and no misses", st)
	}
}

// TestPrefetchFailureLeftToFetch: a page of a run whose checksum is bad is
// left out of the pool, and its fetch fails with the same error as on a pool
// that never prefetched; the rest of the run is loaded. A run whose read
// fails loads nothing, and the fetches read the pages one by one.
func TestPrefetchFailureLeftToFetch(t *testing.T) {
	pool, src := newReadRunPool(t, 32, 8, true)
	src.pages[2][100] ^= 0xFF
	_, want := New(Config{Frames: 32, Source: src.memSource, Checksums: true}).Fetch(2, false)
	if !errors.Is(want, page.ErrBadChecksum) {
		t.Fatalf("fetch of the corrupt page without prefetch: %v, want a checksum error", want)
	}
	pool.Prefetch([]page.ID{1, 2, 3})
	if pool.Resident() != 2 {
		t.Fatalf("%d pages resident after prefetching a run with one bad page, want 2", pool.Resident())
	}
	mustHold(t, pool, 1)
	mustHold(t, pool, 3)
	if _, err := pool.Fetch(2, false); err == nil || err.Error() != want.Error() {
		t.Fatalf("fetch of the corrupt page after prefetch: %v, want %v", err, want)
	}

	src.failRun = true
	pool.Prefetch([]page.ID{5, 6})
	if pool.Resident() != 2 {
		t.Fatalf("a failed run read left %d pages resident, want 2", pool.Resident())
	}
	reads := src.reads
	mustHold(t, pool, 5)
	mustHold(t, pool, 6)
	if src.reads != reads+2 {
		t.Fatalf("fetches after a failed run read read %d pages, want 2", src.reads-reads)
	}
}

// TestPrefetchConcurrentFetchWaits: a Fetch of a page whose run read is in
// flight waits for it and sees the loaded page, without reading it again.
func TestPrefetchConcurrentFetchWaits(t *testing.T) {
	pool, src := newReadRunPool(t, 32, 8, true)
	src.started, src.gate = make(chan struct{}, 1), make(chan struct{})
	prefetched := make(chan struct{})
	go func() {
		pool.Prefetch([]page.ID{5, 6})
		close(prefetched)
	}()
	<-src.started
	fetched := make(chan error, 1)
	go func() {
		h, err := pool.Fetch(6, false)
		if err == nil {
			if got := string(h.Page().MustGet(0)); got != "page-6" {
				err = fmt.Errorf("page 6 holds %q", got)
			}
			h.Release()
		}
		fetched <- err
	}()
	select {
	case err := <-fetched:
		t.Fatalf("fetch returned (%v) while the run read was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(src.gate)
	select {
	case err := <-fetched:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch still waiting after the run read finished")
	}
	<-prefetched
	if st := pool.Stats(); src.reads != 0 || st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("%d page reads, %d misses, %d hits; want the fetch to hit the prefetched frame", src.reads, st.Misses, st.Hits)
	}
}
