package sidefile

import (
	"errors"
	"sync"

	"repro/internal/storage/page"
)

// Writer is an asynchronous write-behind front for a side File. The §5.3
// protocol caches every freshly rewound page in the side file; doing that
// write synchronously puts a side-file I/O on the critical path of the
// first query to touch each page. Writer decouples them: Enqueue stashes
// the page content in memory and returns immediately — the rewound page is
// served to the query at once — while a single background goroutine drains
// the pending set to the file.
//
// The queue holds groups of pages, and the drainer writes each group with
// one File.WriteRun, so a group of pages new to the file reaches it as one
// device write. Enqueue makes a group of one; EnqueueNew queues a batch
// rewind's pages as one group, held back from the file until its caller
// has read them back from memory.
//
// Ordering: all writes for a page funnel through the pending map with
// latest-wins semantics, and Read consults the pending set before the file,
// so a reader can never observe an older version than the newest enqueued
// one — even when snapshot undo rewrites a page whose initial rewound copy
// has not reached the file yet. EnqueueNew never replaces anything.
type Writer struct {
	file *File

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue, completion, and close
	pending  map[page.ID][]byte
	queue    []*group           // FIFO of groups awaiting a file write
	queued   map[page.ID]bool   // id present in some queued group
	inflight map[page.ID][]byte // the group the drainer is writing
	free     [][]byte           // recycled page buffers
	err      error              // sticky: first file-write failure
	closed   bool
	done     chan struct{}
}

// group is a set of pages the drainer writes with one File.WriteRun.
type group struct {
	ids  []page.ID
	held bool // not to be written yet (EnqueueNew's, until released)
}

// NewWriter wraps file with an asynchronous writer and starts its drainer.
func NewWriter(file *File) *Writer {
	w := &Writer{
		file:     file,
		pending:  make(map[page.ID][]byte),
		queued:   make(map[page.ID]bool),
		inflight: make(map[page.ID][]byte),
		done:     make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.drain()
	return w
}

// Enqueue schedules buf as the newest content of page id. buf is copied;
// the caller may reuse it immediately.
func (w *Writer) Enqueue(id page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return errors.New("sidefile: enqueue buffer is not a page")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	b := w.getBufLocked()
	copy(b, buf)
	if old, ok := w.pending[id]; ok && !w.writingLocked(id, old) {
		w.free = append(w.free, old)
	}
	w.pending[id] = b
	if !w.queued[id] {
		w.queued[id] = true
		w.queue = append(w.queue, &group{ids: []page.ID{id}})
	}
	w.cond.Broadcast()
	return nil
}

// EnqueueNew queues, as one group, the pages ids[i] with content bufs[i]
// that are neither pending nor in the file, and leaves every other page as
// it is: a page already materialized — say one the §5.2 background undo
// fixed — always wins over a copy rewound from the primary. The writer
// takes ownership of the buffers of the pages it queues; the caller must
// not touch any of bufs afterwards.
//
// The group is not written before release is called (or the writer is
// closed), so the caller's Reads of its pages are served from memory, not
// read back from the file. release must be called, also after an error
// between the two calls; other groups are written meanwhile.
func (w *Writer) EnqueueNew(ids []page.ID, bufs [][]byte) (release func(), err error) {
	if len(ids) != len(bufs) {
		return nil, errors.New("sidefile: enqueue of mismatched ids and buffers")
	}
	for _, b := range bufs {
		if len(b) != page.Size {
			return nil, errors.New("sidefile: enqueue buffer is not a page")
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return nil, err
	}
	g := &group{held: true}
	for i, id := range ids {
		if _, ok := w.pending[id]; ok || w.file.Has(id) {
			continue
		}
		w.pending[id] = bufs[i]
		w.queued[id] = true
		g.ids = append(g.ids, id)
	}
	if len(g.ids) > 0 {
		w.queue = append(w.queue, g)
	}
	return func() {
		w.mu.Lock()
		g.held = false
		w.cond.Broadcast()
		w.mu.Unlock()
	}, nil
}

func (w *Writer) usableLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("sidefile: enqueue on closed writer")
	}
	return nil
}

// writingLocked reports whether buf is the content of id the drainer is
// writing right now (it must not be recycled under the write).
func (w *Writer) writingLocked(id page.ID, buf []byte) bool {
	b, ok := w.inflight[id]
	return ok && &b[0] == &buf[0]
}

func (w *Writer) getBufLocked() []byte {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		return b
	}
	return make([]byte, page.Size)
}

// Read reads page id preferring the pending (not yet persisted) content,
// falling back to the file. Reports whether the page was found.
func (w *Writer) Read(id page.ID, buf []byte) (bool, error) {
	w.mu.Lock()
	if b, ok := w.pending[id]; ok {
		copy(buf, b)
		w.mu.Unlock()
		return true, nil
	}
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return false, err
	}
	return w.file.ReadPage(id, buf)
}

// Has reports whether page id is materialized (pending or persisted).
func (w *Writer) Has(id page.ID) bool {
	w.mu.Lock()
	_, ok := w.pending[id]
	w.mu.Unlock()
	return ok || w.file.Has(id)
}

// Len returns the number of distinct materialized pages (pending ∪ file).
// The file's index is read under one lock: the drainer indexes a page
// before it retires it from pending, so two separate reads could miss it.
func (w *Writer) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.file.mu.RLock()
	defer w.file.mu.RUnlock()
	n := len(w.file.index)
	for id := range w.pending {
		if _, ok := w.file.index[id]; !ok {
			n++
		}
	}
	return n
}

// Flush blocks until every page enqueued before the call is persisted (or
// the drainer hit an error, which it returns). A held group is waited for
// until it is released.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pending) > 0 && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// Close drains outstanding writes and stops the drainer. The underlying
// file is not closed (the snapshot owns its lifecycle).
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return w.err
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// nextLocked removes and returns the oldest group that may be written now:
// any group once the writer is closed, else the oldest one not held.
func (w *Writer) nextLocked() *group {
	for i, g := range w.queue {
		if !g.held || w.closed {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			return g
		}
	}
	return nil
}

// drain is the writer goroutine: it pops groups and persists the newest
// pending content of their pages, one File.WriteRun per group.
func (w *Writer) drain() {
	defer close(w.done)
	var ids []page.ID
	var bufs [][]byte
	w.mu.Lock()
	for {
		var g *group
		for w.err == nil {
			if g = w.nextLocked(); g != nil || w.closed {
				break
			}
			w.cond.Wait()
		}
		if g == nil {
			w.mu.Unlock()
			return
		}
		ids, bufs = ids[:0], bufs[:0]
		for _, id := range g.ids {
			w.queued[id] = false
			if buf, ok := w.pending[id]; ok {
				w.inflight[id] = buf
				ids = append(ids, id)
				bufs = append(bufs, buf)
			}
		}
		w.mu.Unlock()

		err := w.file.WriteRun(ids, bufs)

		w.mu.Lock()
		clear(w.inflight)
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else {
			for i, id := range ids {
				// Still the newest content: persisted, retire it. If a newer
				// buffer replaced it meanwhile, the id is queued again and
				// the newer content is written by a later group.
				if cur, ok := w.pending[id]; ok && &cur[0] == &bufs[i][0] {
					delete(w.pending, id)
				}
				w.free = append(w.free, bufs[i])
			}
		}
		w.cond.Broadcast()
	}
}
