package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// UndoRowOp logically undoes one insert, delete or update record against st:
// the primary under rollback (where it logs CLRs), a snapshot or a restored
// copy. The row is found by key, since splits may have moved it; the caller
// holds its exclusive lock, so the row an update is found at is the one that
// update left, and the bytes the record carries turn it back.
func UndoRowOp(st btree.Store, rec *wal.Record) error {
	root := page.ID(rec.ObjectID)
	key, err := rec.RowKey()
	if err != nil {
		return err
	}
	switch rec.Type {
	case wal.TypeInsert:
		return btree.UndoInsert(st, root, key)
	case wal.TypeDelete:
		_, val := btree.DecodeLeafRec(rec.OldData)
		return btree.UndoDelete(st, root, key, val)
	case wal.TypeUpdate:
		val, ok, err := btree.Get(st, root, key)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: %x", btree.ErrKeyNotFound, key)
		}
		before, err := rec.RowBefore(btree.EncodeLeafRec(key, val))
		if err != nil {
			return err
		}
		_, val = btree.DecodeLeafRec(before)
		return btree.UndoUpdate(st, root, key, val)
	}
	return fmt.Errorf("engine: no logical undo for a %v record", rec.Type)
}

// firstLocalPage is where the ids of the pages an UnloggedStore allocates
// begin: they live only in the private copy and must never collide with the
// database's own pages.
const firstLocalPage = uint32(1) << 28

// UnloggedStore is the btree.Store of a private copy of the database — an
// as-of snapshot's side-file-backed pages or a restored backup — that nothing
// is logged for. Queries descend through it, and the undo of the transactions
// in flight at the copy's split point (UndoTxn) applies its inverse operations
// to it directly ("this modified page is then written back to the side
// file", §5.2). Each owner supplies the pool's buffer.Source and its own read
// surface.
type UnloggedStore struct {
	pool      *buffer.Pool
	split     wal.LSN
	nextLocal atomic.Uint32
	// treeLocks maps B-Tree roots to copy-local tree locks; read-mostly after
	// the first few queries, hence sync.Map (concurrent scans hit TreeLock on
	// every descent).
	treeLocks sync.Map // page.ID -> *sync.RWMutex
}

// NewUnloggedStore returns a store over a checksummed pool of frames pages
// read from and written back to src; split stamps the pages it allocates or
// reformats.
func NewUnloggedStore(frames int, src buffer.Source, split wal.LSN) *UnloggedStore {
	u := &UnloggedStore{
		pool:  buffer.New(buffer.Config{Frames: frames, Source: src, Checksums: true}),
		split: split,
	}
	u.nextLocal.Store(firstLocalPage)
	return u
}

// Pool returns the copy's private buffer pool.
func (u *UnloggedStore) Pool() *buffer.Pool { return u.pool }

// IsLocalPage reports whether id was allocated by the store (undo-time
// splits) rather than copied from the database.
func (u *UnloggedStore) IsLocalPage(id page.ID) bool { return uint32(id) >= firstLocalPage }

// Fetch returns a latched handle through the private pool.
func (u *UnloggedStore) Fetch(id page.ID, excl bool) (btree.Handle, error) {
	h, err := u.pool.Fetch(id, excl)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Alloc creates a copy-local page (undo-time splits only).
func (u *UnloggedStore) Alloc(objectID uint32, t page.Type, level uint8) (btree.Handle, error) {
	id := page.ID(u.nextLocal.Add(1) - 1)
	h, err := u.pool.NewPage(id)
	if err != nil {
		return nil, err
	}
	h.Page().Format(id, t, level)
	h.Page().SetPageLSN(uint64(u.split))
	h.MarkDirty()
	return h, nil
}

// Free is a no-op: the copy is short-lived and read-only to everything but
// its own undo.
func (u *UnloggedStore) Free(objectID uint32, id page.ID) error { return nil }

func (u *UnloggedStore) apply(h btree.Handle, fn func(p *page.Page) error) error {
	bh := h.(*buffer.Handle)
	if err := fn(bh.Page()); err != nil {
		return err
	}
	bh.MarkDirty()
	return nil
}

// InsertRec applies a slot insert to the copy (not logged).
func (u *UnloggedStore) InsertRec(h btree.Handle, objectID uint32, slot int, rec []byte) error {
	return u.apply(h, func(p *page.Page) error { return p.InsertAt(slot, rec) })
}

// DeleteRec applies a slot delete to the copy.
func (u *UnloggedStore) DeleteRec(h btree.Handle, objectID uint32, slot int) error {
	return u.apply(h, func(p *page.Page) error {
		_, err := p.DeleteAt(slot)
		return err
	})
}

// UpdateRec applies a slot update to the copy.
func (u *UnloggedStore) UpdateRec(h btree.Handle, objectID uint32, slot int, rec []byte) error {
	return u.apply(h, func(p *page.Page) error { return p.UpdateAt(slot, rec) })
}

// Reformat formats a page of the copy in place.
func (u *UnloggedStore) Reformat(h btree.Handle, objectID uint32, t page.Type, level uint8) error {
	return u.apply(h, func(p *page.Page) error {
		p.Format(p.ID(), t, level)
		p.SetPageLSN(uint64(u.split))
		return nil
	})
}

// BeginNTA/EndNTA are no-ops: nothing is logged on the copy.
func (u *UnloggedStore) BeginNTA() uint64 { return 0 }
func (u *UnloggedStore) EndNTA(uint64)    {}

// TreeLock returns a copy-local tree lock. Lock-free on the hot path: every
// query descent fetches the tree lock.
func (u *UnloggedStore) TreeLock(root page.ID) *sync.RWMutex {
	if l, ok := u.treeLocks.Load(root); ok {
		return l.(*sync.RWMutex)
	}
	l, _ := u.treeLocks.LoadOrStore(root, &sync.RWMutex{})
	return l.(*sync.RWMutex)
}

// UndoTxn rolls back transaction e, in flight at the split, on the copy
// without logging: its chain is walked newest first (wal.WalkTxnChain,
// records read through read) and each row operation is undone by key
// (UndoRowOp). A record inside a structure modification the split cut
// (wal.FlagNTA) and an allocation bitmap change are undone physically by
// wal.Undo on the copy of their page — the SMO held its latches across its
// records, so the page's tail is exactly that record. The caller holds, or
// stands in for, the transaction's row locks.
func (u *UnloggedStore) UndoTxn(read func(wal.LSN) (*wal.Record, error), e wal.ATTEntry) error {
	_, err := wal.WalkTxnChain(read, e.LastLSN, func(rec *wal.Record) error {
		var err error
		switch {
		case rec.Type == wal.TypeCLR, rec.Type == wal.TypeImage:
			// A CLR's work is done (the walk skips what it compensated); an
			// image changed nothing.
		case rec.Flags&wal.FlagNTA != 0, rec.Type == wal.TypeAllocBits:
			err = u.undoPhysical(rec)
		case rec.Type == wal.TypeInsert, rec.Type == wal.TypeDelete, rec.Type == wal.TypeUpdate:
			err = UndoRowOp(u, rec)
		}
		if err != nil {
			return fmt.Errorf("engine: unlogged undo of %v at %v: %w", rec.Type, rec.LSN, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("undo of txn %d: %w", e.TxnID, err)
	}
	return nil
}

// undoPhysical reverses one record on the copy of its page.
func (u *UnloggedStore) undoPhysical(rec *wal.Record) error {
	h, err := u.pool.Fetch(page.ID(rec.PageID), true)
	if err != nil {
		return err
	}
	defer h.Release()
	if err := wal.Undo(h.Page(), rec); err != nil {
		return err
	}
	h.MarkDirty()
	return nil
}
