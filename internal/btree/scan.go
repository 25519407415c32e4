package btree

import (
	"bytes"

	"repro/internal/storage/page"
)

// Scan iterates key/value pairs in key order, starting at fromKey (nil =
// beginning) and stopping before toKey (nil = end). fn receives copies and
// returns false to stop early.
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
	for {
		lock.RLock()
		batch, upper, err := scanLeaf(st, root, from, toKey)
		lock.RUnlock()
		if err != nil {
			return err
		}
		for _, kv := range batch {
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

// scanLeaf collects the records of the leaf owning `from` that fall in
// [from, to) — `from` inclusive — plus the upper-bound separator of the
// leaf's position (nil for the rightmost leaf), which the caller uses as
// the next descent target.
func scanLeaf(st Store, root page.ID, from, to []byte) ([]kvPair, []byte, error) {
	cur, err := st.Fetch(root, false)
	if err != nil {
		return nil, nil, err
	}
	var upper []byte
	for cur.Page().Level() > 0 {
		p := cur.Page()
		idx := 0
		if from != nil {
			idx = childIndex(p, from)
		}
		if idx+1 < p.NumSlots() {
			upper = append(upper[:0], recKey(p, idx+1)...)
		}
		child := childAt(p, idx)
		next, err := st.Fetch(child, false)
		if err != nil {
			cur.Release()
			return nil, nil, err
		}
		cur.Release()
		cur = next
	}
	defer cur.Release()
	p := cur.Page()
	start := 0
	if from != nil {
		start, _ = leafSearch(p, from) // records equal to from are included
	}
	var batch []kvPair
	for i := start; i < p.NumSlots(); i++ {
		k, v := DecodeLeafRec(p.MustGet(i))
		if from != nil && bytes.Compare(k, from) < 0 {
			continue
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			return batch, nil, nil // past the end: stop entirely
		}
		batch = append(batch, kvPair{
			k: append([]byte(nil), k...),
			v: append([]byte(nil), v...),
		})
	}
	if upper == nil {
		return batch, nil, nil
	}
	return batch, append([]byte(nil), upper...), nil
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
