// Package buffer implements the buffer manager of §2.1: a fixed set of
// frames caching pages, with shared/exclusive page latches, pin counts,
// clock (second-chance) eviction and the write-ahead-log rule (the log is
// flushed up to a page's pageLSN before the page is written back).
//
// The pool is partitioned into shards keyed by a page-id hash: each shard
// owns a slice of the frames, its own page table and its own clock hand. A
// frame never migrates between shards. Within a shard, the hit path takes
// only the shard lock shared — pin counts and clock bits are atomics — so
// concurrent fetches of resident pages (the overwhelmingly common case,
// e.g. every B-Tree descent through a hot root) do not serialize. Misses
// take the shard lock exclusively only to evict and claim a frame: the
// page read itself happens outside the shard lock, under the claimed
// frame's exclusive latch, so concurrent hits on other pages in the shard
// do not stall behind disk reads (duplicate fetches of the loading page
// block on its latch instead of issuing duplicate I/O). Prefetch loads
// pages ahead the same way, into frames no page has used yet, one source
// read per run of consecutive ids; it never evicts.
//
// The same pool type serves both the primary database and as-of snapshots:
// a snapshot wires in a Source whose ReadPage implements the §5.3 protocol
// (side file hit, else read primary and rewind with PreparePageAsOf) and
// whose WritePage goes to the side file.
package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/storage/page"
)

// Source provides page-granular backing storage for a pool. It must be safe
// for concurrent use: shards evict (and hence read/write pages) in parallel.
type Source interface {
	ReadPage(id page.ID, buf []byte) error
	WritePage(id page.ID, buf []byte) error
}

// RunWriter is implemented by a Source that can write the consecutive pages
// first, first+1, ... with one device write. WriteBackBelow uses it to write
// each contiguous stretch of due pages at once.
type RunWriter interface {
	WriteRun(first page.ID, bufs [][]byte) error
}

// maxRun bounds the pages one run write carries, and so the latches it
// holds and the buffer a RunWriter stages it in (512 KiB).
const maxRun = 64

// RunReader is implemented by a Source that can read the consecutive pages
// first, first+1, ... with one device read. Prefetch uses it to load each
// contiguous stretch of wanted pages at once.
type RunReader interface {
	ReadRun(first page.ID, bufs [][]byte) error
}

// maxReadRun bounds the pages one Prefetch read carries (128 KiB).
const maxReadRun = 16

// ErrNoFrames is returned when every frame of the target shard is pinned
// and none can be evicted.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// Config configures a Pool.
type Config struct {
	// Frames is the number of page frames (default 256).
	Frames int
	// Source is the backing store. Required.
	Source Source
	// FlushLog is called with a pageLSN before a dirty page is written back
	// (the WAL rule). May be nil when the pool's pages are not logged
	// (snapshot side files).
	FlushLog func(pageLSN uint64) error
	// Checksums enables verify-on-read and stamp-on-write.
	Checksums bool
}

type frame struct {
	latch sync.RWMutex
	shard *shard
	id    page.ID
	pg    *page.Page
	dirty atomic.Bool
	// recLSN is the pageLSN of the first logged change since the page was
	// last clean: set when MarkDirty first sees a nonzero pageLSN, cleared
	// by a successful write-back. 0 on a dirty page means no logged change
	// yet (unlogged formatting only).
	recLSN atomic.Uint64
	pins   atomic.Int32
	used   atomic.Bool // clock bit
	// touched is set, under the shard lock, when a page first claims the
	// frame; it is never cleared. Prefetch loads only frames not yet touched.
	touched bool
}

// shard is one partition of the pool: a private page table, frame set and
// clock hand. The table is read under mu.RLock (hits) and mutated under
// mu.Lock (misses, eviction, teardown).
type shard struct {
	pool *Pool

	mu     sync.RWMutex
	table  map[page.ID]*frame
	frames []*frame
	hand   int // clock sweep position, guarded by mu.Lock
	fresh  int // frames[:fresh] are all touched, guarded by mu.Lock

	hits            atomic.Int64
	misses          atomic.Int64
	reads           atomic.Int64 // pages read from the source, by misses and by Prefetch
	readIOs         atomic.Int64 // source reads that carried them
	zeroed          atomic.Int64 // misses NewPage served with a zeroed frame
	evictions       atomic.Int64 // cached pages evicted (clean, or dirty after writeback)
	evictWritebacks atomic.Int64 // dirty victims written back by eviction
	flushWritebacks atomic.Int64 // dirty pages written back by WriteBackBelow
	flushWriteIOs   atomic.Int64 // run writes WriteBackBelow issued for them
}

// Pool is a buffer pool. It is safe for concurrent use.
type Pool struct {
	cfg    Config
	runs   RunWriter // cfg.Source as a RunWriter, or nil
	reads  RunReader // cfg.Source as a RunReader, or nil
	shards []*shard
	shift  uint // 64 - log2(len(shards)), for the multiplicative hash
	// untouched counts the frames no page has claimed yet: once it is 0,
	// Prefetch returns at once.
	untouched atomic.Int64
}

// shardCount picks the number of shards for a pool of n frames: a power of
// two, at most 16, and never so many that a shard would hold fewer than
// 32 frames (tiny pools collapse to one shard and behave exactly like the
// unsharded pool). ErrNoFrames is a per-shard condition — eviction cannot
// borrow frames from neighboring shards — so the floor has to comfortably
// exceed the pins a few concurrent latch-coupled B-Tree descents can hold
// in one shard at once.
func shardCount(n int) int {
	s := 1
	for s < 16 && n/(s*2) >= 32 {
		s *= 2
	}
	return s
}

// framePages recycles the 8 KiB page buffers backing pool frames across
// pool lifetimes. As-of snapshots each mount a private pool; on a busy
// system mounting snapshots continuously, allocating (and GC-scanning)
// megabytes of fresh frames per snapshot taxes every allocating goroutine
// with GC assists — recycling makes pool construction allocation-light.
var framePages = sync.Pool{New: func() any { return page.New() }}

// New creates a pool.
func New(cfg Config) *Pool {
	if cfg.Frames <= 0 {
		cfg.Frames = 256
	}
	ns := shardCount(cfg.Frames)
	p := &Pool{cfg: cfg, shards: make([]*shard, ns)}
	p.runs, _ = cfg.Source.(RunWriter)
	p.reads, _ = cfg.Source.(RunReader)
	p.untouched.Store(int64(cfg.Frames))
	p.shift = 64
	for 1<<(64-p.shift) < ns {
		p.shift--
	}
	per := cfg.Frames / ns
	extra := cfg.Frames % ns
	for i := range p.shards {
		n := per
		if i < extra {
			n++
		}
		s := &shard{pool: p, table: make(map[page.ID]*frame, n)}
		s.frames = make([]*frame, n)
		for j := range s.frames {
			s.frames[j] = &frame{shard: s, id: page.InvalidID, pg: framePages.Get().(*page.Page)}
		}
		p.shards[i] = s
	}
	return p
}

// Destroy returns the pool's frame pages to the shared recycle pool. The
// pool must not be used afterwards; pinned frames are skipped (leaked from
// recycling) so a straggling handle cannot corrupt an unrelated pool.
func (p *Pool) Destroy() {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins.Load() == 0 && f.pg != nil {
				framePages.Put(f.pg)
				f.pg = nil
				f.id = page.InvalidID
			}
		}
		s.table = nil
		s.mu.Unlock()
	}
}

// shardFor maps a page id to its shard with a multiplicative hash, so
// strided access patterns spread instead of pounding one shard.
func (p *Pool) shardFor(id page.ID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[h>>p.shift]
}

// Handle is a pinned, latched page. Callers must Release it promptly.
type Handle struct {
	frame *frame
	excl  bool
	done  bool
}

// Page returns the latched page.
func (h *Handle) Page() *page.Page { return h.frame.pg }

// MarkDirty records that the page has been modified. Requires an exclusive
// handle. Call it after stamping the change's LSN on the page: the first
// nonzero pageLSN MarkDirty sees since the page was last clean becomes its
// recLSN.
func (h *Handle) MarkDirty() {
	if !h.excl {
		panic("buffer: MarkDirty on shared handle")
	}
	f := h.frame
	if f.recLSN.Load() == 0 {
		f.recLSN.Store(f.pg.PageLSN())
	}
	f.dirty.Store(true)
}

// Release unlatches and unpins the page. Safe to call once.
func (h *Handle) Release() {
	if h.done {
		panic("buffer: double release")
	}
	h.done = true
	if h.excl {
		h.frame.latch.Unlock()
	} else {
		h.frame.latch.RUnlock()
	}
	unpin(h.frame)
}

// Upgrade is not supported; callers re-fetch with excl=true. Declared here
// so the invariant is documented in one place: latch upgrades deadlock.

// Fetch returns a latched handle on page id, reading it from the source on
// a miss.
func (p *Pool) Fetch(id page.ID, excl bool) (*Handle, error) {
	return p.fetch(id, excl, true)
}

// NewPage returns an exclusively latched handle on a frame for page id
// without reading the source — for pages being created (fresh allocations),
// or rebuilt whole by redo. A frame claimed for it is zeroed, and callers
// format it; a page already resident is returned as it is.
func (p *Pool) NewPage(id page.ID) (*Handle, error) {
	h, err := p.fetch(id, true, false)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (p *Pool) fetch(id page.ID, excl, read bool) (*Handle, error) {
	if id == page.InvalidID {
		return nil, fmt.Errorf("buffer: fetch of invalid page id")
	}
	s := p.shardFor(id)
	for {
		// Hit path: shared shard lock only. Pinning under the shared lock
		// excludes eviction (which needs the exclusive lock and skips pinned
		// frames), so the frame cannot be repurposed between lookup and pin.
		s.mu.RLock()
		f, ok := s.table[id]
		if ok {
			f.pins.Add(1)
			f.used.Store(true)
			s.mu.RUnlock()
			s.hits.Add(1)
			if h, ok := latchValid(f, id, excl); ok {
				return h, nil
			}
			continue // frame discarded by a failed load; retry
		}
		s.mu.RUnlock()

		s.mu.Lock()
		if f, ok := s.table[id]; ok {
			// A racing miss claimed it while we upgraded the lock.
			f.pins.Add(1)
			f.used.Store(true)
			s.mu.Unlock()
			s.hits.Add(1)
			if h, ok := latchValid(f, id, excl); ok {
				return h, nil
			}
			continue
		}
		s.misses.Add(1)
		// Miss: evict a victim, then claim it — publish the frame in the
		// page table, pinned and exclusively latched, BEFORE the page read,
		// and drop the shard lock for the I/O. Concurrent fetches of other
		// pages in the shard proceed during the read; concurrent fetches of
		// this page find the claimed frame and block on its latch until the
		// load completes. Dirty-victim writeback also happens outside the
		// shard lock (see evictLocked), so no fetch I/O of any kind stalls
		// same-shard hits.
		f, err := s.evictLocked()
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if g, ok := s.table[id]; ok {
			// A racing miss published this page while a dirty-victim
			// writeback had the shard lock released. Join the racer's frame;
			// our victim stays free (unmapped, unpinned) for the next miss.
			g.pins.Add(1)
			g.used.Store(true)
			s.mu.Unlock()
			if h, ok := latchValid(g, id, excl); ok {
				return h, nil
			}
			continue
		}
		s.claimLocked(f, id)
		s.mu.Unlock()

		if read {
			err = p.cfg.Source.ReadPage(id, f.pg.Bytes())
			if err == nil {
				s.reads.Add(1)
				s.readIOs.Add(1)
				if p.cfg.Checksums {
					err = f.pg.VerifyChecksum()
				}
			}
		} else {
			zero(f.pg.Bytes())
			s.zeroed.Add(1)
		}
		if err != nil {
			s.unpublish(f)
			return nil, err
		}
		if !excl {
			// Downgrade: our pin keeps the frame resident; an exclusive
			// fetcher slipping between the two latch operations is the same
			// interleaving as one arriving just after this fetch returns.
			f.latch.Unlock()
			f.latch.RLock()
		}
		return &Handle{frame: f, excl: excl}, nil
	}
}

// claimLocked publishes the free frame f for page id, pinned and exclusively
// latched, before its page is loaded. Called with s.mu held exclusively.
func (s *shard) claimLocked(f *frame, id page.ID) {
	if !f.touched {
		f.touched = true
		s.pool.untouched.Add(-1)
	}
	f.id = id
	f.dirty.Store(false)
	f.recLSN.Store(0)
	f.pins.Store(1)
	f.used.Store(true)
	f.latch.Lock() // uncontended: a free frame has pins==0, hence no waiters
	s.table[id] = f
}

// unpublish gives up a claimed frame whose load failed. Latch waiters see
// the id mismatch and retry; their own load reports the error to them.
func (s *shard) unpublish(f *frame) {
	s.mu.Lock()
	delete(s.table, f.id)
	f.id = page.InvalidID
	s.mu.Unlock()
	f.latch.Unlock()
	unpin(f)
}

// Prefetch loads the pages ids into frames no page has used since the pool
// was created, one source read per run of consecutive ids (at most
// maxReadRun pages). It sorts ids in place. A page already resident, or
// whose shard has no untouched frame left, is skipped: Prefetch never
// evicts, so it cannot write back a dirty page or push out a page a caller
// still needs, and once the pool has filled it does nothing. A page whose
// read or checksum fails is unpublished, and its next Fetch reads it and
// reports the error. It is a no-op when the source is not a RunReader.
//
// A concurrent Fetch of a page being prefetched waits on its frame's latch
// and sees the loaded page.
func (p *Pool) Prefetch(ids []page.ID) {
	if p.reads == nil || p.untouched.Load() == 0 {
		return
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var runFrames [maxReadRun]*frame
	var runBufs [maxReadRun][]byte
	run, bufs := runFrames[:0], runBufs[:0]
	for _, id := range ids {
		if len(run) > 0 && (len(run) == maxReadRun || id != run[0].id+page.ID(len(run))) {
			p.load(run, bufs)
			run, bufs = run[:0], bufs[:0]
		}
		if id == page.InvalidID {
			continue
		}
		if f := p.shardFor(id).claimUntouched(id); f != nil {
			run = append(run, f)
			bufs = append(bufs, f.pg.Bytes())
		}
	}
	if len(run) > 0 {
		p.load(run, bufs)
	}
}

// claimUntouched claims a frame no page has used yet for id, or returns nil
// when id is resident or every frame of the shard has been used.
func (s *shard) claimUntouched(id page.ID) *frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.table[id]; ok {
		return nil
	}
	for ; s.fresh < len(s.frames); s.fresh++ {
		// An untouched frame is free: it is in no page table, so nothing
		// can have pinned it.
		if f := s.frames[s.fresh]; !f.touched {
			s.claimLocked(f, id)
			return f
		}
	}
	return nil
}

// load reads run — claimed frames of consecutive page ids — with one source
// read, then verifies and releases each frame, unpublishing any that failed.
func (p *Pool) load(run []*frame, bufs [][]byte) {
	err := p.reads.ReadRun(run[0].id, bufs)
	if err == nil {
		run[0].shard.readIOs.Add(1)
	}
	for _, f := range run {
		ferr := err
		if ferr == nil {
			f.shard.reads.Add(1)
			if p.cfg.Checksums {
				ferr = f.pg.VerifyChecksum()
			}
		}
		if ferr != nil {
			f.shard.unpublish(f)
			continue
		}
		f.latch.Unlock()
		unpin(f)
	}
}

// latchValid latches a pinned frame and verifies it still holds id — a
// frame found in the table may be mid-load (the latch blocks until the
// loader finishes) and the load may have failed (the frame was unpublished;
// the caller retries).
func latchValid(f *frame, id page.ID, excl bool) (*Handle, bool) {
	lockFrame(f, excl)
	if f.id != id {
		if excl {
			f.latch.Unlock()
		} else {
			f.latch.RUnlock()
		}
		unpin(f)
		return nil, false
	}
	return &Handle{frame: f, excl: excl}, true
}

func lockFrame(f *frame, excl bool) {
	if excl {
		f.latch.Lock()
	} else {
		f.latch.RLock()
	}
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// evictLocked finds a reusable frame. Called with s.mu held exclusively;
// returns with it still held. Clean victims are unmapped and returned
// without ever releasing the lock. A dirty victim's writeback — a WAL
// force plus a page write, the slowest thing a fetch can do — happens
// OUTSIDE the shard lock: the victim is claimed with a pin (pins 0→1 under
// s.mu excludes rival evictors) and exclusively latched (excludes writers
// and WriteBackBelow, whose writeback also holds the latch), the lock is
// dropped for the I/O, and on reacquisition the claim is revalidated — if
// a fetch found the page meanwhile (pins > 1) or a writer re-dirtied it,
// the eviction aborts and the sweep continues; eviction must never evict a
// page that just proved hot.
func (s *shard) evictLocked() (*frame, error) {
	n := len(s.frames)
	for sweep := 0; sweep < 4*n+2; sweep++ {
		f := s.frames[s.hand]
		s.hand = (s.hand + 1) % n
		if f.pins.Load() > 0 {
			continue
		}
		if f.used.Load() {
			f.used.Store(false)
			continue
		}
		if f.id == page.InvalidID {
			return f, nil
		}
		if !f.dirty.Load() {
			delete(s.table, f.id)
			f.id = page.InvalidID
			s.evictions.Add(1)
			return f, nil
		}
		// Dirty victim: claim, write back outside the lock, revalidate.
		f.pins.Add(1)
		s.mu.Unlock()
		f.latch.Lock()
		err := s.pool.writeRun([]*frame{f}, nil)
		f.latch.Unlock()
		s.mu.Lock()
		if err != nil {
			unpin(f)
			return nil, err
		}
		s.evictWritebacks.Add(1)
		if f.pins.Load() == 1 && !f.dirty.Load() && !f.used.Load() && f.id != page.InvalidID {
			// Still cold and clean: ours. Unpin (the caller re-pins when it
			// claims the frame; nothing can reach it once unmapped — the
			// table no longer holds it and rival evictors run under s.mu).
			unpin(f)
			delete(s.table, f.id)
			f.id = page.InvalidID
			s.evictions.Add(1)
			return f, nil
		}
		// The page got hot (pinned, or fetched and released: used flipped
		// back on) or re-dirtied while we flushed: leave it cached — now
		// clean, it is a cheap claim for a later sweep if it cools again.
		unpin(f)
	}
	return nil, ErrNoFrames
}

// writeRun writes back run — frames of consecutive page ids, each latched
// exclusively by the caller — with one device write: through the RunWriter
// when bufs holds their pages in order, else (one frame) WritePage. The log
// is first flushed to the run's highest pageLSN (the WAL rule). The frames
// become clean only if the write succeeded; on failure each stays dirty with
// its recLSN. The exclusive latches are needed even for a reader-facing
// flush: WriteChecksum mutates the page header.
func (p *Pool) writeRun(run []*frame, bufs [][]byte) error {
	first := run[0].id
	if p.cfg.FlushLog != nil {
		var lsn uint64
		for _, f := range run {
			lsn = max(lsn, f.pg.PageLSN())
		}
		if err := p.cfg.FlushLog(lsn); err != nil {
			return fmt.Errorf("buffer: WAL flush before writeback of page %d: %w", first, err)
		}
	}
	if p.cfg.Checksums {
		for _, f := range run {
			f.pg.WriteChecksum()
		}
	}
	var err error
	if bufs == nil {
		err = p.cfg.Source.WritePage(first, run[0].pg.Bytes())
	} else {
		err = p.runs.WriteRun(first, bufs)
	}
	if err != nil {
		return fmt.Errorf("buffer: writeback of %d pages from page %d: %w", len(run), first, err)
	}
	for _, f := range run {
		f.dirty.Store(false)
		f.recLSN.Store(0)
	}
	return nil
}

func unpin(f *frame) {
	if f.pins.Add(-1) < 0 {
		panic("buffer: negative pin count")
	}
}

// FlushAll writes back every dirty page: WriteBackBelow with no bound.
func (p *Pool) FlushAll() error {
	_, err := p.WriteBackBelow(math.MaxUint64)
	return err
}

// WriteBackBelow writes back every dirty page whose recLSN is below lsn — a
// page with no logged change since it was last clean counts as below any
// bound — and returns how many it wrote.
//
// The due frames of every shard are pinned and sorted by page id, and each
// run of consecutive ids goes out as one write (writeRun). A run's frames
// are latched exclusively: writeRun stamps the page checksums into the
// frames, which must not race with a concurrent shared-latch reader copying
// a page (a snapshot source taking an image of it). No latch is waited for
// while another is held: the run's first frame is latched with Lock, and the
// run grows only by frames whose latch TryLock gets, so a checkpoint cannot
// deadlock with B-tree latch coupling. A frame that is busy or no longer due
// ends the run and starts the next one.
func (p *Pool) WriteBackBelow(lsn uint64) (int, error) {
	due := func(f *frame) bool {
		return f.id != page.InvalidID && f.dirty.Load() && f.recLSN.Load() < lsn
	}
	// A pinned frame keeps its page: eviction and teardown skip it.
	var todo []*frame
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if due(f) {
				f.pins.Add(1)
				todo = append(todo, f)
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(todo, func(a, b *frame) int { return cmp.Compare(a.id, b.id) })

	limit := 1
	var bufs [][]byte // stays nil without a RunWriter: writeRun uses WritePage
	if p.runs != nil {
		limit = maxRun
		bufs = make([][]byte, 0, maxRun)
	}
	run := make([]*frame, 0, limit)
	written := 0
	var firstErr error
	for i := 0; i < len(todo); {
		f := todo[i]
		f.latch.Lock()
		if !due(f) {
			f.latch.Unlock()
			unpin(f)
			i++
			continue
		}
		run = append(run[:0], f)
		for j := i + 1; j < len(todo) && len(run) < limit && todo[j].id == f.id+page.ID(len(run)); j++ {
			g := todo[j]
			if !g.latch.TryLock() {
				break
			}
			if !due(g) {
				g.latch.Unlock()
				break
			}
			run = append(run, g)
		}
		if bufs != nil {
			bufs = bufs[:0]
			for _, g := range run {
				bufs = append(bufs, g.pg.Bytes())
			}
		}
		err := p.writeRun(run, bufs)
		if err == nil {
			written += len(run)
			f.shard.flushWriteIOs.Add(1)
		} else if firstErr == nil {
			firstErr = err
		}
		for _, g := range run {
			if err == nil {
				g.shard.flushWritebacks.Add(1)
			}
			g.latch.Unlock()
			unpin(g)
		}
		i += len(run)
	}
	return written, firstErr
}

// DirtyPage is one entry of a dirty-page table.
type DirtyPage struct {
	ID     page.ID
	RecLSN uint64
}

// DirtyPages returns every dirty page whose recLSN is set and below lsn, in
// page-id order. Each resident frame is latched shared in turn, so a change
// in progress under an exclusive latch — its log record appended, MarkDirty
// not yet called — is waited for and seen with its recLSN. One frame is
// pinned at a time, so concurrent misses can still evict.
func (p *Pool) DirtyPages(lsn uint64) []DirtyPage {
	var out []DirtyPage
	for _, s := range p.shards {
		for i := range s.frames {
			s.mu.RLock()
			f := s.frames[i]
			if f.id == page.InvalidID {
				s.mu.RUnlock()
				continue
			}
			f.pins.Add(1)
			s.mu.RUnlock()
			f.latch.RLock()
			if rec := f.recLSN.Load(); f.id != page.InvalidID && f.dirty.Load() && rec != 0 && rec < lsn {
				out = append(out, DirtyPage{ID: f.id, RecLSN: rec})
			}
			f.latch.RUnlock()
			unpin(f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is the pool's cumulative counter snapshot, summed across shards.
type Stats struct {
	Hits            int64 // fetches served from a resident frame
	Misses          int64 // fetches that found the page not resident
	Reads           int64 // pages read from the source, by misses and by Prefetch
	ReadIOs         int64 // source reads that carried Reads
	Zeroed          int64 // misses NewPage served with a zeroed frame instead
	Evictions       int64 // cached pages evicted (clean, or dirty after writeback)
	EvictWritebacks int64 // dirty victims written back by eviction
	FlushWritebacks int64 // dirty pages written back by WriteBackBelow (checkpoints, FlushAll)
	FlushWriteIOs   int64 // run writes that carried FlushWritebacks
	Writebacks      int64 // EvictWritebacks + FlushWritebacks
}

func (s *shard) stats() Stats {
	st := Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Reads:           s.reads.Load(),
		ReadIOs:         s.readIOs.Load(),
		Zeroed:          s.zeroed.Load(),
		Evictions:       s.evictions.Load(),
		EvictWritebacks: s.evictWritebacks.Load(),
		FlushWritebacks: s.flushWritebacks.Load(),
		FlushWriteIOs:   s.flushWriteIOs.Load(),
	}
	st.Writebacks = st.EvictWritebacks + st.FlushWritebacks
	return st
}

// Stats returns the counters summed across shards.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, s := range p.shards {
		x := s.stats()
		st.Hits += x.Hits
		st.Misses += x.Misses
		st.Reads += x.Reads
		st.ReadIOs += x.ReadIOs
		st.Zeroed += x.Zeroed
		st.Evictions += x.Evictions
		st.EvictWritebacks += x.EvictWritebacks
		st.FlushWritebacks += x.FlushWritebacks
		st.FlushWriteIOs += x.FlushWriteIOs
		st.Writebacks += x.Writebacks
	}
	return st
}

// ShardStats returns each shard's counter snapshot, in shard order — the
// per-shard view behind the obs buffer_shard_* metric families.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.stats()
	}
	return out
}

// Resident returns the number of pages currently cached.
func (p *Pool) Resident() int {
	n := 0
	for _, s := range p.shards {
		s.mu.RLock()
		n += len(s.table)
		s.mu.RUnlock()
	}
	return n
}

// Shards returns the number of partitions (introspection for tests).
func (p *Pool) Shards() int { return len(p.shards) }
