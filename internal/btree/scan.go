package btree

import (
	"bytes"

	"repro/internal/storage/page"
)

// Scan iterates key/value pairs in key order, starting at fromKey (nil =
// beginning) and stopping before toKey (nil = end). fn returns false to stop
// early. key and val are valid until fn returns: they point into a buffer
// the scan refills for the next leaf, so a caller that keeps them copies
// them.
//
// The tree keeps no leaf chain: after draining a leaf the scan re-descends
// from the root using the subtree upper bound collected on the way down.
// This avoids logging header pointer mutations on splits and on leaf frees,
// keeps empty leaves harmless (undo's deletes and a parent's last child
// leave them behind; forward deletes free them), and releases all latches
// between leaves so callbacks never run latched.
func Scan(st Store, root page.ID, fromKey, toKey []byte, fn func(key, val []byte) bool) error {
	lock := st.TreeLock(root)
	from := fromKey
	var b leafBatch
	for {
		lock.RLock()
		upper, err := b.load(st, root, from, toKey)
		lock.RUnlock()
		if err != nil {
			return err
		}
		for _, kv := range b.pairs {
			if !fn(kv.k, kv.v) {
				return nil
			}
		}
		if upper == nil {
			return nil
		}
		if toKey != nil && bytes.Compare(upper, toKey) >= 0 {
			return nil
		}
		from = upper
	}
}

type kvPair struct{ k, v []byte }

// leafBatch holds one leaf's records copied out of the page, so that fn runs
// with no latch held. One Scan reuses it for every leaf it visits: pairs and
// arena are reallocated only when a leaf needs more than they hold.
type leafBatch struct {
	pairs []kvPair
	arena []byte // the pairs' keys and values, back to back
}

// load copies into b the records of the leaf owning `from` that fall in
// [from, to) — `from` inclusive — and returns the upper-bound separator of
// the leaf's position, which the caller uses as the next descent target. It
// returns nil for the rightmost leaf and when the range ends in this leaf.
// The in-range records are sized before they are copied, so each buffer
// grows at most once per leaf, to exactly what the leaf needs.
func (b *leafBatch) load(st Store, root page.ID, from, to []byte) ([]byte, error) {
	cur, upper, err := descendBounded(st, root, from, 0)
	if err != nil {
		return nil, err
	}
	defer cur.Release()
	p := cur.Page()
	start := 0
	if from != nil {
		start, _ = leafSearch(p, from) // records equal to from are included
	}
	end, size := start, 0
	for ; end < p.NumSlots(); end++ {
		k, v := DecodeLeafRec(p.MustGet(end))
		if to != nil && bytes.Compare(k, to) >= 0 {
			upper = nil // past the end: stop entirely
			break
		}
		size += len(k) + len(v)
	}
	if n := end - start; cap(b.pairs) < n {
		b.pairs = make([]kvPair, n)
	} else {
		b.pairs = b.pairs[:n]
	}
	if cap(b.arena) < size {
		b.arena = make([]byte, 0, size)
	}
	arena := b.arena[:0]
	for i := start; i < end; i++ {
		k, v := DecodeLeafRec(p.MustGet(i))
		off := len(arena)
		arena = append(append(arena, k...), v...)
		mid := off + len(k)
		b.pairs[i-start] = kvPair{k: arena[off:mid:mid], v: arena[mid:len(arena):len(arena)]}
	}
	return upper, nil
}

// descendBounded walks from root toward key (nil = the leftmost path) with
// latch coupling and stops at the first node at or below level stop. It
// returns that node and the separator that bounds its subtree above (nil on
// the rightmost path). The caller holds the tree lock.
func descendBounded(st Store, root page.ID, key []byte, stop uint8) (Handle, []byte, error) {
	cur, err := st.Fetch(root, false)
	if err != nil {
		return nil, nil, err
	}
	var upper []byte
	for cur.Page().Level() > stop {
		p := cur.Page()
		idx := 0
		if key != nil {
			idx = childIndex(p, key)
		}
		if idx+1 < p.NumSlots() {
			upper = append(upper[:0], recKey(p, idx+1)...)
		}
		next, err := st.Fetch(childAt(p, idx), false)
		cur.Release()
		if err != nil {
			return nil, nil, err
		}
		cur = next
	}
	return cur, upper, nil
}

// descendToLevel1 returns the level-1 node owning key and its upper bound,
// or a nil handle when the root is itself a leaf.
func descendToLevel1(st Store, root page.ID, key []byte) (Handle, []byte, error) {
	h, upper, err := descendBounded(st, root, key, 1)
	if err == nil && h.Page().Level() == 0 {
		h.Release()
		return nil, nil, nil
	}
	return h, upper, err
}

// LeafOf returns the id of the leaf that owns key without fetching it: the
// descent stops at the level-1 node and reads the child pointer. A caller
// that is about to read many keys learns which leaves it will touch before
// it pays for any of them. It returns page.InvalidID when the root is a leaf.
func LeafOf(st Store, root page.ID, key []byte) (page.ID, error) {
	lock := st.TreeLock(root)
	lock.RLock()
	defer lock.RUnlock()
	h, _, err := descendToLevel1(st, root, key)
	if err != nil || h == nil {
		return page.InvalidID, err
	}
	defer h.Release()
	return childAt(h.Page(), childIndex(h.Page(), key)), nil
}

// LeafRef names one leaf by its id and the separator its keys start at.
type LeafRef struct {
	ID  page.ID
	Low []byte
}

// LeafRun returns, without fetching them, the leaves under the level-1 node
// owning from (nil = the leftmost) that a Scan of [from, to) visits, in key
// order, and the key that scan continues from once it has drained them (nil
// when the range ends under this node). No leaves and no key mean the root
// is a leaf. Low bounds every leaf but the first, which begins wherever the
// leaf before it ended (a node's first separator stands for minus infinity).
func LeafRun(st Store, root page.ID, from, to []byte) ([]LeafRef, []byte, error) {
	lock := st.TreeLock(root)
	lock.RLock()
	defer lock.RUnlock()
	h, upper, err := descendToLevel1(st, root, from)
	if err != nil || h == nil {
		return nil, nil, err
	}
	defer h.Release()
	p := h.Page()
	first := 0
	if from != nil {
		first = childIndex(p, from)
	}
	var run []LeafRef
	for i := first; i < p.NumSlots(); i++ {
		key, child := decodeInternalRec(p.MustGet(i))
		if i > first && to != nil && bytes.Compare(key, to) >= 0 {
			return run, nil, nil // the leaf holds nothing below to
		}
		run = append(run, LeafRef{ID: child, Low: append([]byte(nil), key...)})
	}
	if upper == nil || (to != nil && bytes.Compare(upper, to) >= 0) {
		return run, nil, nil
	}
	return run, upper, nil
}

// Count returns the number of records in [fromKey, toKey).
func Count(st Store, root page.ID, fromKey, toKey []byte) (int, error) {
	n := 0
	err := Scan(st, root, fromKey, toKey, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}

// Stats describes the physical shape of a tree.
type Stats struct {
	Pages    int
	Leaves   int
	Internal int
	Records  int
	Height   int
}

// TreeStats walks the whole tree (shared-locked) and reports its shape.
func TreeStats(st Store, root page.ID) (Stats, error) {
	lock := st.TreeLock(root)
	lock.RLock()
	defer lock.RUnlock()
	var s Stats
	err := statsRec(st, root, &s, 1)
	return s, err
}

func statsRec(st Store, id page.ID, s *Stats, depth int) error {
	h, err := st.Fetch(id, false)
	if err != nil {
		return err
	}
	p := h.Page()
	s.Pages++
	if depth > s.Height {
		s.Height = depth
	}
	var children []page.ID
	if p.Type() == page.TypeInternal {
		s.Internal++
		for i := 0; i < p.NumSlots(); i++ {
			children = append(children, childAt(p, i))
		}
	} else {
		s.Leaves++
		s.Records += p.NumSlots()
	}
	h.Release()
	for _, c := range children {
		if err := statsRec(st, c, s, depth+1); err != nil {
			return err
		}
	}
	return nil
}
