package btree

import (
	"errors"
	"fmt"

	"repro/internal/storage/page"
)

// Insert stores key -> val, failing with ErrKeyExists on duplicates.
// The fast path holds the tree lock shared and only the leaf exclusively;
// if the leaf is full, it retries with the tree lock exclusive, splitting
// full nodes on the way down.
func Insert(st Store, root page.ID, key, val []byte) error {
	if err := checkSizes(key, val); err != nil {
		return err
	}
	rec := EncodeLeafRec(key, val)
	lock := st.TreeLock(root)

	lock.RLock()
	done, err := insertFast(st, root, key, rec)
	lock.RUnlock()
	if done || err != nil {
		return err
	}

	lock.Lock()
	defer lock.Unlock()
	return insertSlow(st, root, key, rec)
}

// insertFast attempts the no-split insert. Returns done=false when a split
// is required.
func insertFast(st Store, root page.ID, key, rec []byte) (bool, error) {
	h, err := descendToLeaf(st, root, key, true)
	if err != nil {
		return true, err
	}
	defer h.Release()
	slot, found := leafSearch(h.Page(), key)
	if found {
		return true, fmt.Errorf("%w: %x", ErrKeyExists, key)
	}
	if !h.Page().HasSpace(len(rec) + 8) {
		return false, nil
	}
	return true, st.InsertRec(h, uint32(root), slot, rec)
}

// insertSlow inserts under the exclusive tree lock, splitting any node that
// could overflow before descending into it (single-pass preemptive split).
func insertSlow(st Store, root page.ID, key, rec []byte) error {
	// Guarantee the root itself has room for a post-split separator or the
	// record, then descend.
	rh, err := st.Fetch(root, true)
	if err != nil {
		return err
	}
	if !rh.Page().HasSpace(splitReserve) {
		if err := splitRoot(st, root, rh); err != nil {
			rh.Release()
			return err
		}
	}
	cur := rh
	for cur.Page().Level() > 0 {
		idx := childIndex(cur.Page(), key)
		childID := childAt(cur.Page(), idx)
		child, err := st.Fetch(childID, true)
		if err != nil {
			cur.Release()
			return err
		}
		if !child.Page().HasSpace(splitReserve) {
			// Split the child; its separator goes into cur, which has
			// guaranteed reserve space. Then re-pick the descent child.
			if err := splitChild(st, root, cur, idx, child, key, len(rec)); err != nil {
				child.Release()
				cur.Release()
				return err
			}
			child.Release()
			idx = childIndex(cur.Page(), key)
			childID = childAt(cur.Page(), idx)
			child, err = st.Fetch(childID, true)
			if err != nil {
				cur.Release()
				return err
			}
			if child.Page().Level() == 0 && !child.Page().HasSpace(len(rec)+8) {
				// Very uneven record sizes: that half is still too full.
				child.Release()
				cur.Release()
				return insertSlow(st, root, key, rec)
			}
		}
		cur.Release()
		cur = child
	}
	defer cur.Release()
	slot, found := leafSearch(cur.Page(), key)
	if found {
		return fmt.Errorf("%w: %x", ErrKeyExists, key)
	}
	return st.InsertRec(cur, uint32(root), slot, rec)
}

// splitChild splits the full child (latched exclusively, at parent slot
// parentIdx) by moving the records from the split point up into a freshly
// allocated sibling and inserting the separator into parent. Moves are logged
// as inserts into the new page followed by deletes from the old page, the
// deletes carrying row images (§4.2 extension 3) — so where the split lands
// decides how much log it writes. key is the key about to be inserted and
// need the size of its record; see splitPoint.
func splitChild(st Store, root page.ID, parent Handle, parentIdx int, child Handle, key []byte, need int) error {
	cp := child.Page()
	n := cp.NumSlots()
	if n < 2 {
		return fmt.Errorf("btree: cannot split page %d with %d records", cp.ID(), n)
	}
	at, point := splitPoint(cp, key, need)
	nta := st.BeginNTA()
	defer st.EndNTA(nta)
	// The separator is the first key of the new sibling: the first record
	// moved, or the new key itself when nothing moves.
	sep := key
	if at < n {
		sep = recKey(cp, at)
	}
	sep = append([]byte(nil), sep...)

	sib, err := st.Alloc(uint32(root), cp.Type(), cp.Level())
	if err != nil {
		return err
	}
	defer sib.Release()

	// Inserts into the new page...
	for i := at; i < n; i++ {
		if err := st.InsertRec(sib, uint32(root), i-at, cp.MustGet(i)); err != nil {
			return err
		}
	}
	// ...followed by deletes from the old page, top down so earlier slot
	// indexes stay valid.
	for i := n - 1; i >= at; i-- {
		if err := st.DeleteRec(child, uint32(root), i); err != nil {
			return err
		}
	}
	// Separator into the parent (guaranteed reserve space).
	if err := st.InsertRec(parent, uint32(root), parentIdx+1, encodeInternalRec(sep, sib.Page().ID())); err != nil {
		return err
	}
	countSplit(st, point)
	return nil
}

func countSplit(st Store, point bool) {
	if c, ok := st.(SMOCounter); ok {
		c.CountSplit(point)
	}
}

// splitPoint picks the slot at which a full node splits (records from that
// slot up move to the new sibling) and reports whether it is the insertion
// point rather than the middle. It reads only the latched page and the key,
// so primary, replica and recovered copies of a page would all choose alike.
//
// A leaf splits where the insert lands, s, when the insert continues an
// ascending run: s == n (the sibling starts empty, the new key is the
// separator and nothing moves), or the record at s-1 is the one most recently
// placed on the page — the stateless analogue of PostgreSQL's "split after
// new item" test. The second case is what lets a run that ends mid-leaf (one
// of TPC-C's twenty interleaved order_line runs) converge: the records of the
// next run move out once, the new key goes last on the old page, and every
// later split of that run is an s == n split. An internal node about to
// descend into its last child splits at n-1. Everything else — random and
// descending inserts — splits at n/2.
func splitPoint(p *page.Page, key []byte, need int) (at int, point bool) {
	n := p.NumSlots()
	if p.Level() > 0 {
		if childIndex(p, key) == n-1 {
			return n - 1, true
		}
		return n / 2, false
	}
	s, found := leafSearch(p, key)
	if found {
		return n / 2, false // a duplicate: the insert is about to fail
	}
	if s == n {
		return n, true
	}
	if p.LastPlaced(s - 1) {
		// The new record goes last on the old page: split here only if the
		// records that leave make room for it.
		room := p.FreeSpace()
		for i := s; i < n; i++ {
			room += len(p.MustGet(i))
		}
		if room >= need {
			return s, true
		}
	}
	return n / 2, false
}

// splitRoot grows the tree by one level while keeping the root page id
// stable: all root records move into two new children, then the root is
// reformatted in place as an internal node. The reformat is preceded by a
// preformat record carrying the prior root image, so as-of queries can
// rewind across the root split (paper Figure 2 applies to any reformat of a
// page with live prior content, not just re-allocation).
func splitRoot(st Store, root page.ID, rh Handle) error {
	rp := rh.Page()
	n := rp.NumSlots()
	if n < 2 {
		return fmt.Errorf("btree: cannot split root %d with %d records", root, n)
	}
	nta := st.BeginNTA()
	defer st.EndNTA(nta)
	mid := n / 2
	level := rp.Level()
	typ := rp.Type()
	sepHigh := append([]byte(nil), recKey(rp, mid)...)

	left, err := st.Alloc(uint32(root), typ, level)
	if err != nil {
		return err
	}
	defer left.Release()
	right, err := st.Alloc(uint32(root), typ, level)
	if err != nil {
		return err
	}
	defer right.Release()

	for i := 0; i < mid; i++ {
		if err := st.InsertRec(left, uint32(root), i, rp.MustGet(i)); err != nil {
			return err
		}
	}
	for i := mid; i < n; i++ {
		if err := st.InsertRec(right, uint32(root), i-mid, rp.MustGet(i)); err != nil {
			return err
		}
	}
	if err := st.Reformat(rh, uint32(root), page.TypeInternal, level+1); err != nil {
		return err
	}
	// Slot 0's key is -infinity by convention; store it empty.
	if err := st.InsertRec(rh, uint32(root), 0, encodeInternalRec(nil, left.Page().ID())); err != nil {
		return err
	}
	if err := st.InsertRec(rh, uint32(root), 1, encodeInternalRec(sepHigh, right.Page().ID())); err != nil {
		return err
	}
	countSplit(st, false)
	return nil
}

// Update replaces the value under key, failing with ErrKeyNotFound if absent.
func Update(st Store, root page.ID, key, val []byte) error {
	if err := checkSizes(key, val); err != nil {
		return err
	}
	rec := EncodeLeafRec(key, val)
	lock := st.TreeLock(root)

	lock.RLock()
	err := updateInPlace(st, root, key, rec)
	lock.RUnlock()
	if !errors.Is(err, page.ErrPageFull) {
		return err
	}

	// The grown record does not fit: delete + insert under the exclusive
	// tree lock (the insert path may split).
	lock.Lock()
	defer lock.Unlock()
	h, err := descendToLeaf(st, root, key, true)
	if err != nil {
		return err
	}
	slot, found := leafSearch(h.Page(), key)
	if !found {
		h.Release()
		return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	if err := st.DeleteRec(h, uint32(root), slot); err != nil {
		h.Release()
		return err
	}
	h.Release()
	return insertSlow(st, root, key, rec)
}

func updateInPlace(st Store, root page.ID, key, rec []byte) error {
	h, err := descendToLeaf(st, root, key, true)
	if err != nil {
		return err
	}
	defer h.Release()
	slot, found := leafSearch(h.Page(), key)
	if !found {
		return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	if !h.Page().FitsAt(slot, len(rec)) {
		return page.ErrPageFull // before the store logs what it cannot apply
	}
	return st.UpdateRec(h, uint32(root), slot, rec)
}

// Delete removes key, returning its previous value. A delete that empties a
// leaf gives the page back: the tree lock is retaken exclusively and, as one
// nested top action, the parent's separator is removed and the page freed.
// Its content stays in place for as-of reads, and the preformat record logged
// at its next allocation bridges the two chains (§4.2 extension 1). Nothing
// is merged or rebalanced: a leaf lives until its last record goes.
func Delete(st Store, root page.ID, key []byte) ([]byte, error) {
	lock := st.TreeLock(root)
	lock.RLock()
	old, emptied, err := deleteFromLeaf(st, root, key)
	lock.RUnlock()
	if err != nil || !emptied {
		return old, err
	}
	lock.Lock()
	defer lock.Unlock()
	return old, freeEmptyLeaf(st, root, key)
}

// deleteFromLeaf removes key under the shared tree lock and reports whether
// that left a non-root leaf empty.
func deleteFromLeaf(st Store, root page.ID, key []byte) (old []byte, emptied bool, err error) {
	h, err := descendToLeaf(st, root, key, true)
	if err != nil {
		return nil, false, err
	}
	defer h.Release()
	slot, found := leafSearch(h.Page(), key)
	if !found {
		return nil, false, fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	_, val := DecodeLeafRec(h.Page().MustGet(slot))
	old = append([]byte(nil), val...)
	if err := st.DeleteRec(h, uint32(root), slot); err != nil {
		return nil, false, err
	}
	return old, h.Page().NumSlots() == 0 && h.Page().ID() != root, nil
}

// freeEmptyLeaf unlinks and frees the leaf owning key if it is still empty
// (an insert may have landed between the two lock holds) and is not its
// parent's only child. The caller holds the tree lock exclusively. Removing
// slot 0 needs no fix-up: whatever becomes slot 0 is read as -infinity.
func freeEmptyLeaf(st Store, root page.ID, key []byte) error {
	parent, err := st.Fetch(root, true)
	if err != nil {
		return err
	}
	defer func() { parent.Release() }()
	if parent.Page().Level() == 0 {
		return nil
	}
	for parent.Page().Level() > 1 {
		next, err := st.Fetch(childAt(parent.Page(), childIndex(parent.Page(), key)), true)
		if err != nil {
			return err
		}
		parent.Release()
		parent = next
	}
	if parent.Page().NumSlots() < 2 {
		return nil
	}
	idx := childIndex(parent.Page(), key)
	leafID := childAt(parent.Page(), idx)
	leaf, err := st.Fetch(leafID, false)
	if err != nil {
		return err
	}
	empty := leaf.Page().NumSlots() == 0
	leaf.Release()
	if !empty {
		return nil
	}
	nta := st.BeginNTA()
	defer st.EndNTA(nta)
	if err := st.DeleteRec(parent, uint32(root), idx); err != nil {
		return err
	}
	if err := st.Free(uint32(root), leafID); err != nil {
		return err
	}
	if c, ok := st.(SMOCounter); ok {
		c.CountLeafFree()
	}
	return nil
}

// UndoInsert, UndoDelete and UndoUpdate are the logical-undo entry points
// used by transaction rollback and by as-of snapshot recovery (§5.2): they
// re-locate the row by key (it may have moved to another page through
// splits since the original operation) and apply the inverse operation.
// UndoInsert never frees the leaf it empties: undo runs on snapshots and
// restored copies whose allocation state is not theirs to change, and a
// rollback's compensation stays a single-page record.
func UndoInsert(st Store, root page.ID, key []byte) error {
	lock := st.TreeLock(root)
	lock.RLock()
	defer lock.RUnlock()
	_, _, err := deleteFromLeaf(st, root, key)
	return err
}

func UndoDelete(st Store, root page.ID, key, val []byte) error {
	return Insert(st, root, key, val)
}

func UndoUpdate(st Store, root page.ID, key, oldVal []byte) error {
	return Update(st, root, key, oldVal)
}
