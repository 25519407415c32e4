// Package btree implements the index manager of §2.1: clustered B-Trees
// over slotted pages, with structure modification operations (SMOs) logged
// the way §4.2 requires for page-oriented undo — the rows a split moves are
// logged as inserts into the new page followed by deletes (carrying the
// deleted row images) from the old page, and in-place node reformats (root
// splits) are preceded by preformat records storing the prior page image.
// Because every moved row is logged twice, a split is placed where the
// insert lands when that continues an ascending run (see splitPoint): the
// run's leaves stay full and the split moves few rows or none. A forward
// delete that empties a leaf unlinks and frees it (see Delete); the page's
// next allocation logs a preformat record, so as-of reads cross the reuse.
//
// The tree is written against the Store interface, so the same code runs on
// the primary database (where Store logs every page operation to the WAL)
// and on private copies — as-of snapshots and restored backups — where Store
// applies operations to the copy's pages without logging, during the logical
// undo of in-flight transactions.
//
// Concurrency: each tree has a tree-level RWMutex (from Store.TreeLock).
// Reads and in-place writes hold it shared with page-latch coupling;
// structure modifications (splits, leaf frees) hold it exclusively. Root page
// ids are stable: a root split moves all records into two new children and
// reformats the root in place, so catalog root pointers never change.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage/page"
)

// Limits. MaxKeySize+MaxValueSize must comfortably fit several records per
// page so splits always succeed.
const (
	MaxKeySize   = 1024
	MaxRecSize   = 2048 // encoded leaf record: 2 + keyLen + valLen
	splitReserve = MaxRecSize + 8
)

// Errors.
var (
	ErrKeyExists   = errors.New("btree: key already exists")
	ErrKeyNotFound = errors.New("btree: key not found")
	ErrKeyTooLarge = errors.New("btree: key too large")
	ErrRecTooLarge = errors.New("btree: record too large")
)

// Handle is a latched page reference, released exactly once.
type Handle interface {
	Page() *page.Page
	Release()
}

// Store provides latched page access and (on the primary) logged page
// operations. Implementations: the engine's transaction (logged) and
// engine.UnloggedStore (unlogged), which an as-of snapshot (side-file backed)
// and a restored backup (its restored file) both embed.
type Store interface {
	// Fetch returns a latched handle on id (exclusive or shared).
	Fetch(id page.ID, excl bool) (Handle, error)
	// Alloc allocates and formats a fresh page of the given type and level,
	// returning an exclusively latched handle. objectID tags the log records.
	Alloc(objectID uint32, t page.Type, level uint8) (Handle, error)
	// Free deallocates a page (its content is preserved for as-of reads).
	Free(objectID uint32, id page.ID) error
	// InsertRec/DeleteRec/UpdateRec log (if applicable) and apply one slot
	// operation to the exclusively latched page h.
	InsertRec(h Handle, objectID uint32, slot int, rec []byte) error
	DeleteRec(h Handle, objectID uint32, slot int) error
	UpdateRec(h Handle, objectID uint32, slot int, rec []byte) error
	// Reformat re-formats the latched live page, preserving its prior image
	// via a preformat record (paper Figure 2) so as-of queries can rewind
	// across the reformat.
	Reformat(h Handle, objectID uint32, t page.Type, level uint8) error
	// BeginNTA/EndNTA bracket a structure modification as a nested top
	// action: on the primary, EndNTA logs a dummy CLR whose UndoNextLSN
	// points before the SMO, so transaction rollback never logically undoes
	// a completed split (SQL Server runs SMOs as system transactions; the
	// dummy-CLR technique is the ARIES equivalent with identical effect).
	BeginNTA() uint64
	EndNTA(token uint64)
	// TreeLock returns the tree-level lock for the tree rooted at root.
	TreeLock(root page.ID) *sync.RWMutex
}

// SMOCounter is implemented by a Store that counts structure modifications
// (the engine's transaction does, for its btree_* metric families).
type SMOCounter interface {
	// CountSplit notes one completed node split; point is true when it was
	// placed at the insertion point instead of the middle.
	CountSplit(point bool)
	// CountLeafFree notes one emptied leaf unlinked and freed.
	CountLeafFree()
}

// --- record encodings ---

// EncodeLeafRec encodes a leaf record: u16 keyLen | key | value.
func EncodeLeafRec(key, val []byte) []byte {
	rec := make([]byte, 2+len(key)+len(val))
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	copy(rec[2+len(key):], val)
	return rec
}

// DecodeLeafRec splits a leaf record into key and value (aliasing rec).
func DecodeLeafRec(rec []byte) (key, val []byte) {
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n], rec[2+n:]
}

// encodeInternalRec encodes an internal record: u16 keyLen | key | u32 child.
func encodeInternalRec(key []byte, child page.ID) []byte {
	rec := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	binary.LittleEndian.PutUint32(rec[2+len(key):], uint32(child))
	return rec
}

func decodeInternalRec(rec []byte) (key []byte, child page.ID) {
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n], page.ID(binary.LittleEndian.Uint32(rec[2+n:]))
}

// recKey returns the key of a record on a page of the given type.
func recKey(p *page.Page, slot int) []byte {
	rec := p.MustGet(slot)
	n := binary.LittleEndian.Uint16(rec)
	return rec[2 : 2+n]
}

// leafSearch finds the slot of key in a leaf, or the insertion position.
func leafSearch(p *page.Page, key []byte) (slot int, found bool) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(recKey(p, mid), key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndex picks the child to descend into: the largest slot i such that
// i == 0 or key_i <= key (slot 0's key is treated as -infinity).
func childIndex(p *page.Page, key []byte) int {
	lo, hi := 1, p.NumSlots() // slot 0 always qualifies
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(recKey(p, mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func childAt(p *page.Page, slot int) page.ID {
	_, child := decodeInternalRec(p.MustGet(slot))
	return child
}

func checkSizes(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key))
	}
	if 2+len(key)+len(val) > MaxRecSize {
		return fmt.Errorf("%w: %d bytes", ErrRecTooLarge, 2+len(key)+len(val))
	}
	return nil
}

// Create allocates a new empty tree and returns its root page id.
// The root id doubles as the tree's object id in log records.
func Create(st Store) (page.ID, error) {
	h, err := st.Alloc(0, page.TypeLeaf, 0)
	if err != nil {
		return page.InvalidID, err
	}
	root := h.Page().ID()
	h.Release()
	return root, nil
}

// Drop walks the tree and frees every page including the root.
func Drop(st Store, root page.ID) error {
	lock := st.TreeLock(root)
	lock.Lock()
	defer lock.Unlock()
	return dropRec(st, root, root)
}

func dropRec(st Store, root, id page.ID) error {
	h, err := st.Fetch(id, false)
	if err != nil {
		return err
	}
	var children []page.ID
	if h.Page().Type() == page.TypeInternal {
		for i := 0; i < h.Page().NumSlots(); i++ {
			children = append(children, childAt(h.Page(), i))
		}
	}
	h.Release()
	for _, c := range children {
		if err := dropRec(st, root, c); err != nil {
			return err
		}
	}
	return st.Free(uint32(root), id)
}

// Get returns a copy of the value stored under key, if present.
func Get(st Store, root page.ID, key []byte) ([]byte, bool, error) {
	lock := st.TreeLock(root)
	lock.RLock()
	defer lock.RUnlock()
	h, err := descendToLeaf(st, root, key, false)
	if err != nil {
		return nil, false, err
	}
	defer h.Release()
	slot, found := leafSearch(h.Page(), key)
	if !found {
		return nil, false, nil
	}
	_, val := DecodeLeafRec(h.Page().MustGet(slot))
	return append([]byte(nil), val...), true, nil
}

// descendToLeaf walks from root to the leaf owning key with latch coupling.
// leafExcl selects the leaf latch mode. The caller must hold the tree lock
// (shared is enough: the lock keeps the structure stable, page latches
// serialize content changes).
func descendToLeaf(st Store, root page.ID, key []byte, leafExcl bool) (Handle, error) {
	cur, err := st.Fetch(root, false)
	if err != nil {
		return nil, err
	}
	if cur.Page().Level() == 0 {
		// The root is the leaf. Retake it exclusively if needed; the tree
		// lock guarantees it is still a leaf after the re-fetch.
		if !leafExcl {
			return cur, nil
		}
		cur.Release()
		return st.Fetch(root, true)
	}
	for {
		idx := childIndex(cur.Page(), key)
		child := childAt(cur.Page(), idx)
		excl := leafExcl && cur.Page().Level() == 1
		next, err := st.Fetch(child, excl)
		if err != nil {
			cur.Release()
			return nil, err
		}
		cur.Release()
		cur = next
		if cur.Page().Level() == 0 {
			return cur, nil
		}
	}
}
