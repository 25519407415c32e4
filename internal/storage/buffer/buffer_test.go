package buffer

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/page"
)

// memSource is an in-memory Source for tests.
type memSource struct {
	mu     sync.Mutex
	pages  map[page.ID][]byte
	reads  int
	writes int
	failRd bool
}

func newMemSource() *memSource { return &memSource{pages: make(map[page.ID][]byte)} }

func (m *memSource) ReadPage(id page.ID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reads++
	if m.failRd {
		return errors.New("injected read failure")
	}
	src, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("memsource: no page %d", id)
	}
	copy(buf, src)
	return nil
}

func (m *memSource) WritePage(id page.ID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	cp := make([]byte, len(buf))
	copy(cp, buf)
	m.pages[id] = cp
	return nil
}

func (m *memSource) seed(id page.ID) {
	p := page.New()
	p.Format(id, page.TypeLeaf, 0)
	p.InsertAt(0, []byte(fmt.Sprintf("page-%d", id)))
	m.pages[id] = append([]byte(nil), p.Bytes()...)
}

func TestFetchReadsThrough(t *testing.T) {
	src := newMemSource()
	src.seed(1)
	pool := New(Config{Frames: 4, Source: src})
	h, err := pool.Fetch(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(h.Page().MustGet(0)); got != "page-1" {
		t.Fatalf("content = %q", got)
	}
	h.Release()
	if src.reads != 1 {
		t.Fatalf("source reads = %d, want 1", src.reads)
	}
	// Second fetch hits cache.
	h2, _ := pool.Fetch(1, false)
	h2.Release()
	if src.reads != 1 {
		t.Fatalf("cache miss on resident page: reads = %d", src.reads)
	}
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestDirtyEvictionWritesBackWithWALRule(t *testing.T) {
	src := newMemSource()
	for i := 0; i < 5; i++ {
		src.seed(page.ID(i))
	}
	var flushedTo uint64
	pool := New(Config{
		Frames: 2,
		Source: src,
		FlushLog: func(lsn uint64) error {
			if lsn > flushedTo {
				flushedTo = lsn
			}
			return nil
		},
	})
	h, err := pool.Fetch(0, true)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().UpdateAt(0, []byte("modified"))
	h.Page().SetPageLSN(777)
	h.MarkDirty()
	h.Release()

	// Fill the pool to force eviction of page 0.
	for i := 1; i < 5; i++ {
		h, err := pool.Fetch(page.ID(i), false)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if flushedTo != 777 {
		t.Fatalf("WAL flushed to %d before writeback, want 777", flushedTo)
	}
	if src.writes == 0 {
		t.Fatal("dirty page never written back")
	}
	// Re-read page 0: the modification must have survived.
	h, err = pool.Fetch(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := string(h.Page().MustGet(0)); got != "modified" {
		t.Fatalf("writeback lost modification: %q", got)
	}
}

func TestAllPinnedFails(t *testing.T) {
	src := newMemSource()
	for i := 0; i < 3; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: 2, Source: src})
	h0, _ := pool.Fetch(0, false)
	h1, _ := pool.Fetch(1, false)
	if _, err := pool.Fetch(2, false); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("fetch with all pinned: %v, want ErrNoFrames", err)
	}
	h0.Release()
	h1.Release()
	if _, err := pool.Fetch(2, false); err != nil {
		t.Fatalf("fetch after release: %v", err)
	}
}

func TestNewPageSkipsRead(t *testing.T) {
	src := newMemSource()
	pool := New(Config{Frames: 2, Source: src})
	h, err := pool.NewPage(9)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().Format(9, page.TypeLeaf, 0)
	h.MarkDirty()
	h.Release()
	if src.reads != 0 {
		t.Fatalf("NewPage read the source %d times", src.reads)
	}
	// The new page is fetchable from cache.
	h2, err := pool.Fetch(9, false)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Page().ID() != 9 {
		t.Fatalf("new page id = %d", h2.Page().ID())
	}
	h2.Release()
}

func TestFlushAllWritesDirtyOnly(t *testing.T) {
	src := newMemSource()
	src.seed(0)
	src.seed(1)
	pool := New(Config{Frames: 4, Source: src})
	h0, _ := pool.Fetch(0, true)
	h0.Page().UpdateAt(0, []byte("dirty!"))
	h0.MarkDirty()
	h0.Release()
	h1, _ := pool.Fetch(1, false)
	h1.Release()

	src.mu.Lock()
	src.writes = 0
	src.mu.Unlock()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if src.writes != 1 {
		t.Fatalf("FlushAll wrote %d pages, want 1", src.writes)
	}
	// Second flush is a no-op.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if src.writes != 1 {
		t.Fatalf("second FlushAll wrote again: %d", src.writes)
	}
}

func TestReadFailureLeavesPoolUsable(t *testing.T) {
	src := newMemSource()
	src.seed(0)
	pool := New(Config{Frames: 2, Source: src})
	src.failRd = true
	if _, err := pool.Fetch(0, false); err == nil {
		t.Fatal("expected read failure")
	}
	src.failRd = false
	h, err := pool.Fetch(0, false)
	if err != nil {
		t.Fatalf("pool unusable after failed read: %v", err)
	}
	h.Release()
}

func TestChecksumVerifiedOnRead(t *testing.T) {
	src := newMemSource()
	p := page.New()
	p.Format(1, page.TypeLeaf, 0)
	p.InsertAt(0, []byte("checked"))
	p.WriteChecksum()
	buf := append([]byte(nil), p.Bytes()...)
	buf[100] ^= 0xFF // corrupt
	src.pages[1] = buf

	pool := New(Config{Frames: 2, Source: src, Checksums: true})
	if _, err := pool.Fetch(1, false); err == nil {
		t.Fatal("corrupted page should fail checksum on fetch")
	}
}

func TestConcurrentReaders(t *testing.T) {
	src := newMemSource()
	for i := 0; i < 16; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: 8, Source: src})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := page.ID((w + i) % 16)
				h, err := pool.Fetch(id, false)
				if err != nil {
					if errors.Is(err, ErrNoFrames) {
						continue
					}
					t.Error(err)
					return
				}
				if h.Page().ID() != id {
					t.Errorf("fetched %d got page %d", id, h.Page().ID())
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
}

func TestExclusiveLatchBlocksSharers(t *testing.T) {
	src := newMemSource()
	src.seed(0)
	pool := New(Config{Frames: 2, Source: src})
	h, _ := pool.Fetch(0, true)
	done := make(chan struct{})
	go func() {
		h2, err := pool.Fetch(0, false)
		if err != nil {
			t.Error(err)
		} else {
			h2.Release()
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // give the goroutine a chance to block
	select {
	case <-done:
		t.Fatal("shared fetch did not block on exclusive latch")
	default:
	}
	h.Release()
	<-done
}

func TestDoubleReleasePanics(t *testing.T) {
	src := newMemSource()
	src.seed(0)
	pool := New(Config{Frames: 2, Source: src})
	h, _ := pool.Fetch(0, false)
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	h.Release()
}

func TestMarkDirtyOnSharedPanics(t *testing.T) {
	src := newMemSource()
	src.seed(0)
	pool := New(Config{Frames: 2, Source: src})
	h, _ := pool.Fetch(0, false)
	defer h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty on shared handle should panic")
		}
	}()
	h.MarkDirty()
}

// --- sharded pool ---

func TestShardCounts(t *testing.T) {
	for _, tc := range []struct{ frames, want int }{
		{2, 1}, {8, 1}, {16, 1}, {64, 2}, {512, 16}, {8192, 16},
	} {
		p := New(Config{Frames: tc.frames, Source: newMemSource()})
		if got := p.Shards(); got != tc.want {
			t.Errorf("Frames=%d: %d shards, want %d", tc.frames, got, tc.want)
		}
	}
}

// TestShardedPoolServesAllPages fills a multi-shard pool and verifies every
// page is fetchable with correct content and the counters add up.
func TestShardedPoolServesAllPages(t *testing.T) {
	src := newMemSource()
	const pages = 100
	for i := 0; i < pages; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: 256, Source: src})
	if pool.Shards() < 2 {
		t.Fatalf("want a sharded pool, got %d shards", pool.Shards())
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < pages; i++ {
			h, err := pool.Fetch(page.ID(i), false)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(h.Page().MustGet(0)); got != fmt.Sprintf("page-%d", i) {
				t.Fatalf("page %d content %q", i, got)
			}
			h.Release()
		}
	}
	if pool.Resident() != pages {
		t.Fatalf("resident = %d, want %d", pool.Resident(), pages)
	}
	st := pool.Stats()
	if st.Misses != pages || st.Hits != pages {
		t.Fatalf("stats hits=%d misses=%d, want %d/%d", st.Hits, st.Misses, pages, pages)
	}
}

// TestShardedPoolConcurrentMixed hammers a sharded pool with concurrent
// readers, writers and evictions for the race detector.
func TestShardedPoolConcurrentMixed(t *testing.T) {
	src := newMemSource()
	const pages = 200
	for i := 0; i < pages; i++ {
		src.seed(page.ID(i))
	}
	var flushMu sync.Mutex
	var flushed uint64
	pool := New(Config{
		Frames: 64, // smaller than the working set: constant eviction
		Source: src,
		FlushLog: func(lsn uint64) error {
			flushMu.Lock()
			if lsn > flushed {
				flushed = lsn
			}
			flushMu.Unlock()
			return nil
		},
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := page.ID((w*37 + i*13) % pages)
				excl := i%5 == 0
				h, err := pool.Fetch(id, excl)
				if err != nil {
					if errors.Is(err, ErrNoFrames) {
						continue
					}
					t.Error(err)
					return
				}
				if h.Page().ID() != id {
					t.Errorf("fetched %d got %d", id, h.Page().ID())
				}
				if excl {
					h.Page().SetPageLSN(uint64(w*1000 + i))
					h.MarkDirty()
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// gatedSource wraps a memSource, blocking WritePage until released — it
// simulates a slow dirty-victim writeback so tests can assert what the
// pool does (and does not) block on while the write is in flight.
type gatedSource struct {
	*memSource
	entered chan page.ID  // receives the id of each write as it starts
	gate    chan struct{} // writes proceed when this channel is closed
}

func (g *gatedSource) WritePage(id page.ID, buf []byte) error {
	select {
	case g.entered <- id:
	default:
	}
	<-g.gate
	return g.memSource.WritePage(id, buf)
}

// TestDirtyEvictionDoesNotBlockSameShardHits pins a hot page, makes every
// other frame dirty, and triggers a miss whose victim writeback is stalled
// in the source. A hit on the hot page must complete while the writeback is
// still in flight — the PR 2 open item this closes: dirty-victim writeback
// used to run under the shard lock, stalling every same-shard hit behind
// the page write.
func TestDirtyEvictionDoesNotBlockSameShardHits(t *testing.T) {
	src := &gatedSource{
		memSource: newMemSource(),
		entered:   make(chan page.ID, 1),
		gate:      make(chan struct{}),
	}
	const frames = 32 // single shard: every page contends for one lock
	for i := 0; i < frames+8; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: frames, Source: src})
	if pool.Shards() != 1 {
		t.Fatalf("want single-shard pool, got %d shards", pool.Shards())
	}

	// Hot page: pinned shared so eviction never selects it.
	hot, err := pool.Fetch(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Release()

	// Dirty every other frame so the next miss must write a victim back.
	for i := 1; i < frames; i++ {
		h, err := pool.Fetch(page.ID(i), true)
		if err != nil {
			t.Fatal(err)
		}
		h.Page().SetPageLSN(uint64(i))
		h.MarkDirty()
		h.Release()
	}

	// Miss: its dirty-victim writeback parks in the gated source.
	missDone := make(chan error, 1)
	go func() {
		h, err := pool.Fetch(page.ID(frames+1), false)
		if err == nil {
			h.Release()
		}
		missDone <- err
	}()
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("victim writeback never reached the source")
	}

	// The writeback is in flight and unfinished. A hit on the hot page must
	// not block behind it.
	hitDone := make(chan error, 1)
	go func() {
		h, err := pool.Fetch(0, false)
		if err == nil {
			h.Release()
		}
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatalf("hit during writeback: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("same-shard hit stalled behind a dirty-victim writeback")
	}

	close(src.gate)
	if err := <-missDone; err != nil {
		t.Fatalf("miss after writeback: %v", err)
	}
}

// TestConcurrentDirtyEvictionIntegrity hammers a too-small pool with
// concurrent writers incrementing per-page counters, readers, and
// write-back sweeps (bounded, with a dirty-page capture, and FlushAll).
// Dirty victims are constantly written back outside the shard lock; if an
// eviction ever raced a fetch into two frames for one page (or
// evicted a re-dirtied page), increments would be lost and the final
// counters would disagree.
func TestConcurrentDirtyEvictionIntegrity(t *testing.T) {
	src := newMemSource()
	const pages = 96
	for i := 0; i < pages; i++ {
		src.seed(page.ID(i))
	}
	var flushMu sync.Mutex
	var flushedLSN uint64
	pool := New(Config{
		Frames: 48, // half the working set: every fetch is near an eviction
		Source: src,
		FlushLog: func(lsn uint64) error {
			flushMu.Lock()
			if lsn > flushedLSN {
				flushedLSN = lsn
			}
			flushMu.Unlock()
			return nil
		},
	})

	counts := make([]int64, pages) // expected increments, per page
	var countMu sync.Mutex
	var lsn uint64 = 1
	nextLSN := func() uint64 {
		countMu.Lock()
		defer countMu.Unlock()
		lsn++
		return lsn
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	sweeperDone := make(chan struct{})
	// Checkpoint-like sweeper: concurrent writebacks through the other
	// path, alternating a bounded write-back and its dirty-page capture with
	// FlushAll.
	go func() {
		defer close(sweeperDone)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
				bound := uint64(math.MaxUint64)
				if n%2 == 0 {
					countMu.Lock()
					bound = lsn / 2
					countMu.Unlock()
				}
				if _, err := pool.WriteBackBelow(bound); err != nil {
					t.Error(err)
					return
				}
				for _, d := range pool.DirtyPages(bound) {
					if d.RecLSN == 0 || d.RecLSN >= bound {
						t.Errorf("DirtyPages(%d) listed page %d with recLSN %d", bound, d.ID, d.RecLSN)
					}
				}
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := page.ID((w*31 + i*7) % pages)
				if i%3 == 0 { // reader
					h, err := pool.Fetch(id, false)
					if err != nil {
						if errors.Is(err, ErrNoFrames) {
							continue
						}
						t.Error(err)
						return
					}
					if h.Page().ID() != id {
						t.Errorf("fetched %d got %d", id, h.Page().ID())
					}
					h.Release()
					continue
				}
				h, err := pool.Fetch(id, true)
				if err != nil {
					if errors.Is(err, ErrNoFrames) {
						continue
					}
					t.Error(err)
					return
				}
				// Increment the page-resident counter (bytes 100..108 of the
				// payload area are unused by the slotted layout here because
				// the page was seeded with one tiny record).
				buf := h.Page().Bytes()[7000:]
				v := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
				v++
				buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Page().SetPageLSN(nextLSN())
				h.MarkDirty()
				countMu.Lock()
				counts[id]++
				countMu.Unlock()
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-sweeperDone

	for i := 0; i < pages; i++ {
		h, err := pool.Fetch(page.ID(i), false)
		if err != nil {
			t.Fatal(err)
		}
		buf := h.Page().Bytes()[7000:]
		v := int64(uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24)
		if v != counts[i] {
			t.Errorf("page %d: counter %d, want %d (lost update through eviction)", i, v, counts[i])
		}
		h.Release()
	}
}

// TestStatsCountEvictionsAndWritebacks forces both a clean and a dirty
// eviction through a 2-frame pool and checks the new Stats counters: every
// eviction of a cached page counts, and dirty victims additionally count a
// writeback.
func TestStatsCountEvictionsAndWritebacks(t *testing.T) {
	src := newMemSource()
	for i := 0; i < 6; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: 2, Source: src})

	// Dirty page 0 so its eviction must write back.
	h, err := pool.Fetch(0, true)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().UpdateAt(0, []byte("dirty"))
	h.MarkDirty()
	h.Release()

	// Cycle the whole working set through the 2 frames: pages 1..5 evict
	// whatever resides, including dirty page 0.
	for i := 1; i < 6; i++ {
		h, err := pool.Fetch(page.ID(i), false)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	st := pool.Stats()
	// 6 fetches into 2 frames: at least 4 cached pages were displaced.
	if st.Evictions < 4 {
		t.Fatalf("evictions = %d, want >= 4", st.Evictions)
	}
	if st.Writebacks != 1 || st.EvictWritebacks != 1 || st.FlushWritebacks != 0 {
		t.Fatalf("writebacks = %d (evict %d, flush %d), want 1 by eviction (only page 0 was dirty)",
			st.Writebacks, st.EvictWritebacks, st.FlushWritebacks)
	}
	if st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/6", st.Hits, st.Misses)
	}

	// FlushAll's writebacks count too.
	h, err = pool.Fetch(1, true)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().UpdateAt(0, []byte("again"))
	h.MarkDirty()
	h.Release()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Writebacks != 2 || st.EvictWritebacks != 1 || st.FlushWritebacks != 1 {
		t.Fatalf("after FlushAll: writebacks = %d (evict %d, flush %d), want 2 (1, 1)",
			st.Writebacks, st.EvictWritebacks, st.FlushWritebacks)
	}
}

// dirtyAt modifies page id under an exclusive latch, stamping lsn as its
// pageLSN (0 leaves it unlogged) before MarkDirty, as a logged change does.
func dirtyAt(t *testing.T, pool *Pool, id page.ID, lsn uint64) {
	t.Helper()
	h, err := pool.Fetch(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		h.Page().SetPageLSN(lsn)
	}
	h.MarkDirty()
	h.Release()
}

// TestRecLSNBoundsWriteBack: a page's recLSN is its first logged change
// since it was last clean; WriteBackBelow writes back exactly the pages
// whose recLSN is below the bound (and those with no logged change yet),
// and DirtyPages lists what stays dirty with its recLSN.
func TestRecLSNBoundsWriteBack(t *testing.T) {
	src := newMemSource()
	for i := 1; i <= 4; i++ {
		src.seed(page.ID(i))
	}
	pool := New(Config{Frames: 8, Source: src})
	dirtyAt(t, pool, 1, 100)
	dirtyAt(t, pool, 1, 300) // already dirty: recLSN stays 100
	dirtyAt(t, pool, 2, 200)
	dirtyAt(t, pool, 3, 0)   // unlogged change only: no recLSN yet
	dirtyAt(t, pool, 4, 0)   // unlogged first...
	dirtyAt(t, pool, 4, 250) // ...then its first logged change
	want := []DirtyPage{{1, 100}, {2, 200}, {4, 250}}
	if got := pool.DirtyPages(1000); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DirtyPages = %v, want %v", got, want)
	}
	if got := pool.DirtyPages(200); fmt.Sprint(got) != fmt.Sprint(want[:1]) {
		t.Fatalf("DirtyPages below 200 = %v, want %v", got, want[:1])
	}

	// Below 201: page 1 (100), page 2 (200) and page 3 (no recLSN).
	n, err := pool.WriteBackBelow(201)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || src.writes != 3 {
		t.Fatalf("WriteBackBelow(201) wrote %d pages (%d source writes), want 3", n, src.writes)
	}
	if got := pool.DirtyPages(1000); fmt.Sprint(got) != fmt.Sprint([]DirtyPage{{4, 250}}) {
		t.Fatalf("after write-back DirtyPages = %v, want [{4 250}]", got)
	}
	// A written-back page that is dirtied again takes its new change's LSN.
	dirtyAt(t, pool, 1, 400)
	if got := pool.DirtyPages(1000); fmt.Sprint(got) != fmt.Sprint([]DirtyPage{{1, 400}, {4, 250}}) {
		t.Fatalf("re-dirtied DirtyPages = %v", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := pool.DirtyPages(1000); len(got) != 0 {
		t.Fatalf("after FlushAll DirtyPages = %v, want none", got)
	}
	if st := pool.Stats(); st.FlushWritebacks != 5 || st.EvictWritebacks != 0 {
		t.Fatalf("flush writebacks = %d, evict = %d, want 5, 0", st.FlushWritebacks, st.EvictWritebacks)
	}
}

// TestDirtyPagesWaitsForLatchedChange: a change whose log record is already
// appended (its LSN below the capture bound) but whose page is still
// exclusively latched, not yet marked dirty, is in the table once the
// capture returns — the capture waits for the latch.
func TestDirtyPagesWaitsForLatchedChange(t *testing.T) {
	src := newMemSource()
	src.seed(1)
	pool := New(Config{Frames: 4, Source: src})
	h, err := pool.Fetch(1, true)
	if err != nil {
		t.Fatal(err)
	}
	h.Page().SetPageLSN(50)
	got := make(chan []DirtyPage)
	go func() { got <- pool.DirtyPages(100) }()
	select {
	case d := <-got:
		t.Fatalf("capture returned %v while the page was latched", d)
	case <-time.After(20 * time.Millisecond):
	}
	h.MarkDirty()
	h.Release()
	if d := <-got; fmt.Sprint(d) != fmt.Sprint([]DirtyPage{{1, 50}}) {
		t.Fatalf("DirtyPages = %v, want [{1 50}]", d)
	}
}

// runSource is a memSource that also writes runs (a RunWriter), recording
// each call's first page and length; failRun makes WriteRun fail.
type runSource struct {
	*memSource
	runs    [][2]int // {first, pages} per WriteRun call
	failRun bool
}

func (r *runSource) WriteRun(first page.ID, bufs [][]byte) error {
	r.mu.Lock()
	r.runs = append(r.runs, [2]int{int(first), len(bufs)})
	fail := r.failRun
	r.mu.Unlock()
	if fail {
		return errors.New("injected run write failure")
	}
	for i, b := range bufs {
		if err := r.memSource.WritePage(first+page.ID(i), b); err != nil {
			return err
		}
	}
	return nil
}

func (r *runSource) calls() [][2]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][2]int(nil), r.runs...)
}

func newRunPool(t *testing.T, ids ...page.ID) (*Pool, *runSource) {
	t.Helper()
	src := &runSource{memSource: newMemSource()}
	for _, id := range ids {
		src.seed(id)
	}
	pool := New(Config{Frames: 64, Source: src})
	if pool.runs == nil {
		t.Fatal("pool did not resolve its source as a RunWriter")
	}
	return pool, src
}

// TestWriteBackRunsContiguous: dirty pages 10, 11, 12 and 20 go out as two
// writes, one per run of consecutive ids, and the checkpoint counts two
// write I/Os for four pages.
func TestWriteBackRunsContiguous(t *testing.T) {
	pool, src := newRunPool(t, 10, 11, 12, 20)
	for _, id := range []page.ID{20, 12, 10, 11} {
		dirtyAt(t, pool, id, 100+uint64(id))
	}
	n, err := pool.WriteBackBelow(math.MaxUint64)
	if err != nil || n != 4 {
		t.Fatalf("WriteBackBelow wrote %d pages, err %v; want 4", n, err)
	}
	if got := fmt.Sprint(src.calls()); got != "[[10 3] [20 1]]" {
		t.Fatalf("WriteRun calls = %s, want [[10 3] [20 1]]", got)
	}
	if st := pool.Stats(); st.FlushWritebacks != 4 || st.FlushWriteIOs != 2 {
		t.Fatalf("flush writebacks %d in %d I/Os, want 4 in 2", st.FlushWritebacks, st.FlushWriteIOs)
	}
	if d := pool.DirtyPages(math.MaxUint64); len(d) != 0 {
		t.Fatalf("pages still dirty after write-back: %v", d)
	}
}

// TestWriteBackRunsSkipBusyLatch: with page 11 held exclusively by another
// goroutine, WriteBackBelow writes 10 without waiting for 11 (it never
// waits on a latch while holding one), writes 11 once it is released, and
// nothing deadlocks.
func TestWriteBackRunsSkipBusyLatch(t *testing.T) {
	pool, src := newRunPool(t, 10, 11, 12)
	for _, id := range []page.ID{10, 11, 12} {
		dirtyAt(t, pool, id, 50)
	}
	held, err := pool.Fetch(11, true)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pool.WriteBackBelow(math.MaxUint64)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(src.calls()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("page 10 not written while page 11 was latched")
		}
		time.Sleep(time.Millisecond)
	}
	if got := fmt.Sprint(src.calls()); got != "[[10 1]]" {
		t.Fatalf("WriteRun calls while 11 is latched = %s, want [[10 1]]", got)
	}
	held.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteBackBelow did not finish after the latch was released")
	}
	if got := fmt.Sprint(src.calls()); got != "[[10 1] [11 2]]" {
		t.Fatalf("WriteRun calls = %s, want [[10 1] [11 2]]", got)
	}
}

// TestWriteBackRunFailureKeepsDirty: a failing run write leaves every frame
// of the run dirty with its recLSN, and a later write-back retries them.
func TestWriteBackRunFailureKeepsDirty(t *testing.T) {
	pool, src := newRunPool(t, 3, 4, 5)
	for _, id := range []page.ID{3, 4, 5} {
		dirtyAt(t, pool, id, 10*uint64(id))
	}
	src.failRun = true
	if n, err := pool.WriteBackBelow(math.MaxUint64); err == nil || n != 0 {
		t.Fatalf("WriteBackBelow = %d, %v; want 0 and an error", n, err)
	}
	want := []DirtyPage{{3, 30}, {4, 40}, {5, 50}}
	if got := pool.DirtyPages(math.MaxUint64); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a failed run DirtyPages = %v, want %v", got, want)
	}
	if st := pool.Stats(); st.FlushWritebacks != 0 || st.FlushWriteIOs != 0 {
		t.Fatalf("failed run counted: %d writebacks, %d I/Os", st.FlushWritebacks, st.FlushWriteIOs)
	}
	src.failRun = false
	if n, err := pool.WriteBackBelow(math.MaxUint64); err != nil || n != 3 {
		t.Fatalf("retry wrote %d pages, err %v; want 3", n, err)
	}
}
