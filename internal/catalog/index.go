package catalog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/row"
	"repro/internal/storage/page"
)

// Index is a secondary index catalog entry: a B-Tree whose entries map
// (indexed columns..., primary key...) to the encoded primary key. Index
// metadata lives in the same relational catalog pages as everything else,
// so indexes time-travel with the identical as-of mechanism — §7.2's
// argument that page-level undo needs no per-structure versioning code.
type Index struct {
	ID      uint32
	Name    string
	Root    page.ID
	TableID uint32
	// Cols are ordinals of the indexed columns in the table's schema.
	Cols []int
}

// Index rows live in sys_tables keyed by object id, with a name-prefix in
// sys_names ("ix:" + name) so table and index names cannot collide
// silently. The value row is {id, name, root, meta} with meta encoding the
// parent table and column ordinals; the 4-value shape is shared with
// tables, discriminated by the name entry's prefix.
const indexNamePrefix = "ix:"

func encodeIndexMeta(ix Index) []byte {
	buf := make([]byte, 8+4*len(ix.Cols))
	binary.LittleEndian.PutUint32(buf, ix.TableID)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(ix.Cols)))
	for i, c := range ix.Cols {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(c))
	}
	return buf
}

func decodeIndexMeta(b []byte) (tableID uint32, cols []int, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("catalog: short index meta")
	}
	tableID = binary.LittleEndian.Uint32(b)
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) != 8+4*n {
		return 0, nil, fmt.Errorf("catalog: index meta size %d for %d cols", len(b), n)
	}
	for i := 0; i < n; i++ {
		cols = append(cols, int(binary.LittleEndian.Uint32(b[8+4*i:])))
	}
	return tableID, cols, nil
}

// CreateIndex registers a secondary index.
func CreateIndex(st btree.Store, r Roots, ix Index) error {
	if len(ix.Cols) == 0 {
		return fmt.Errorf("catalog: index %q has no columns", ix.Name)
	}
	nameKey := namesKey(indexNamePrefix + ix.Name)
	if _, ok, err := btree.Get(st, r.Names, nameKey); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: index %q", ErrExists, ix.Name)
	}
	val := row.Encode(row.Row{
		row.Int64(int64(ix.ID)),
		row.String(indexNamePrefix + ix.Name),
		row.Int64(int64(ix.Root)),
		row.BytesVal(encodeIndexMeta(ix)),
	})
	if err := btree.Insert(st, r.Tables, tablesKey(ix.ID), val); err != nil {
		return err
	}
	nameVal := row.Encode(row.Row{row.Int64(int64(ix.ID))})
	return btree.Insert(st, r.Names, nameKey, nameVal)
}

// DropIndex removes an index's catalog entries.
func DropIndex(st btree.Store, r Roots, name string) (Index, error) {
	ix, err := LookupIndex(st, r, name)
	if err != nil {
		return Index{}, err
	}
	if _, err := btree.Delete(st, r.Tables, tablesKey(ix.ID)); err != nil {
		return Index{}, err
	}
	if _, err := btree.Delete(st, r.Names, namesKey(indexNamePrefix+name)); err != nil {
		return Index{}, err
	}
	return ix, nil
}

// LookupIndex resolves an index by name.
func LookupIndex(st btree.Store, r Roots, name string) (Index, error) {
	val, ok, err := btree.Get(st, r.Names, namesKey(indexNamePrefix+name))
	if err != nil {
		return Index{}, err
	}
	if !ok {
		return Index{}, fmt.Errorf("%w: index %q", ErrNotFound, name)
	}
	idRow, err := row.Decode(val)
	if err != nil {
		return Index{}, err
	}
	return indexByID(st, r, uint32(idRow[0].Int))
}

func indexByID(st btree.Store, r Roots, id uint32) (Index, error) {
	val, ok, err := btree.Get(st, r.Tables, tablesKey(id))
	if err != nil {
		return Index{}, err
	}
	if !ok {
		return Index{}, fmt.Errorf("%w: index object %d", ErrNotFound, id)
	}
	return decodeIndex(val)
}

func decodeIndex(val []byte) (Index, error) {
	vals, err := row.Decode(val)
	if err != nil {
		return Index{}, err
	}
	if len(vals) != 4 {
		return Index{}, fmt.Errorf("catalog: index row has %d values", len(vals))
	}
	tableID, cols, err := decodeIndexMeta(vals[3].Bytes())
	if err != nil {
		return Index{}, err
	}
	name := vals[1].Str
	if len(name) > len(indexNamePrefix) {
		name = name[len(indexNamePrefix):]
	}
	return Index{
		ID:      uint32(vals[0].Int),
		Name:    name,
		Root:    page.ID(vals[2].Int),
		TableID: tableID,
		Cols:    cols,
	}, nil
}

// IndexesOf lists the indexes registered on a table.
func IndexesOf(st btree.Store, r Roots, tableID uint32) ([]Index, error) {
	var out []Index
	var scanErr error
	err := btree.Scan(st, r.Tables, nil, nil, func(_, val []byte) bool {
		vals, err := row.Decode(val)
		if err != nil || len(vals) < 2 {
			return true
		}
		if len(vals[1].Str) <= len(indexNamePrefix) || vals[1].Str[:len(indexNamePrefix)] != indexNamePrefix {
			return true // a table row
		}
		ix, err := decodeIndex(val)
		if err != nil {
			scanErr = err
			return false
		}
		if ix.TableID == tableID {
			out = append(out, ix)
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	return out, err
}
