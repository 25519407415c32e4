// Package catalog implements the relational metadata catalog of §2.1/§3:
// system tables (sys_tables, sys_names, sys_columns) stored in ordinary
// B-Trees on ordinary data pages. Because metadata lives on the same pages
// and is logged the same way as data, as-of snapshots unwind it with the
// same PreparePageAsOf mechanism — which is what makes dropped-table
// recovery work with no special-purpose metadata versioning (§7.2).
package catalog

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/row"
	"repro/internal/storage/page"
)

// Roots holds the root pages of the system tables. They are recorded in the
// database boot page and never change (root splits keep root ids stable).
type Roots struct {
	Tables  page.ID // object id -> (name, root, schema)
	Names   page.ID // name -> object id
	Columns page.ID // (object id, ordinal) -> (name, kind)
}

// Valid reports whether the roots have been initialized.
func (r Roots) Valid() bool {
	return r.Tables != 0 && r.Tables != page.InvalidID &&
		r.Names != 0 && r.Names != page.InvalidID &&
		r.Columns != 0 && r.Columns != page.InvalidID
}

// Table is a catalog entry.
type Table struct {
	ID     uint32
	Name   string
	Root   page.ID
	Schema *row.Schema
}

// ErrNotFound is returned when a table does not exist.
var ErrNotFound = errors.New("catalog: table not found")

// ErrExists is returned when creating a table whose name is taken.
var ErrExists = errors.New("catalog: table already exists")

// Bootstrap creates the three system trees. Called once at database
// creation, under the bootstrap system transaction.
func Bootstrap(st btree.Store) (Roots, error) {
	var r Roots
	var err error
	if r.Tables, err = btree.Create(st); err != nil {
		return r, fmt.Errorf("catalog: bootstrap sys_tables: %w", err)
	}
	if r.Names, err = btree.Create(st); err != nil {
		return r, fmt.Errorf("catalog: bootstrap sys_names: %w", err)
	}
	if r.Columns, err = btree.Create(st); err != nil {
		return r, fmt.Errorf("catalog: bootstrap sys_columns: %w", err)
	}
	return r, nil
}

func tablesKey(id uint32) []byte { return row.EncodeKey(row.Row{row.Int64(int64(id))}) }
func namesKey(name string) []byte {
	return row.EncodeKey(row.Row{row.String(name)})
}
func columnsKey(id uint32, ord int) []byte {
	return row.EncodeKey(row.Row{row.Int64(int64(id)), row.Int64(int64(ord))})
}

// Create registers a table with the given object id and root.
func Create(st btree.Store, r Roots, t Table) error {
	if err := t.Schema.Validate(); err != nil {
		return err
	}
	if _, ok, err := btree.Get(st, r.Names, namesKey(t.Name)); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %q", ErrExists, t.Name)
	}
	val := row.Encode(row.Row{
		row.Int64(int64(t.ID)),
		row.String(t.Name),
		row.Int64(int64(t.Root)),
		row.BytesVal(row.EncodeSchema(t.Schema)),
	})
	if err := btree.Insert(st, r.Tables, tablesKey(t.ID), val); err != nil {
		return err
	}
	nameVal := row.Encode(row.Row{row.Int64(int64(t.ID))})
	if err := btree.Insert(st, r.Names, namesKey(t.Name), nameVal); err != nil {
		return err
	}
	for i, c := range t.Schema.Columns {
		colVal := row.Encode(row.Row{row.String(c.Name), row.Int64(int64(c.Kind))})
		if err := btree.Insert(st, r.Columns, columnsKey(t.ID, i), colVal); err != nil {
			return err
		}
	}
	return nil
}

// Drop removes a table's catalog entries, returning what was removed.
// The table's data pages are freed by the engine, not here.
func Drop(st btree.Store, r Roots, name string) (Table, error) {
	t, err := LookupByName(st, r, name)
	if err != nil {
		return Table{}, err
	}
	if _, err := btree.Delete(st, r.Tables, tablesKey(t.ID)); err != nil {
		return Table{}, err
	}
	if _, err := btree.Delete(st, r.Names, namesKey(t.Name)); err != nil {
		return Table{}, err
	}
	for i := range t.Schema.Columns {
		if _, err := btree.Delete(st, r.Columns, columnsKey(t.ID, i)); err != nil {
			return Table{}, err
		}
	}
	return t, nil
}

// LookupByName resolves a table by name.
func LookupByName(st btree.Store, r Roots, name string) (Table, error) {
	val, ok, err := btree.Get(st, r.Names, namesKey(name))
	if err != nil {
		return Table{}, err
	}
	if !ok {
		return Table{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	idRow, err := row.Decode(val)
	if err != nil {
		return Table{}, err
	}
	return LookupByID(st, r, uint32(idRow[0].Int))
}

// LookupByID resolves a table by object id.
func LookupByID(st btree.Store, r Roots, id uint32) (Table, error) {
	val, ok, err := btree.Get(st, r.Tables, tablesKey(id))
	if err != nil {
		return Table{}, err
	}
	if !ok {
		return Table{}, fmt.Errorf("%w: object %d", ErrNotFound, id)
	}
	return decodeTable(val)
}

func decodeTable(val []byte) (Table, error) {
	vals, err := row.Decode(val)
	if err != nil {
		return Table{}, err
	}
	if len(vals) != 4 {
		return Table{}, fmt.Errorf("catalog: sys_tables row has %d values", len(vals))
	}
	schema, err := row.DecodeSchema(vals[3].Bytes())
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:     uint32(vals[0].Int),
		Name:   vals[1].Str,
		Root:   page.ID(vals[2].Int),
		Schema: schema,
	}, nil
}

// List returns all tables in object-id order (indexes are listed by
// IndexesOf, not here).
func List(st btree.Store, r Roots) ([]Table, error) {
	var out []Table
	var scanErr error
	err := btree.Scan(st, r.Tables, nil, nil, func(_, val []byte) bool {
		if isIndexRow(val) {
			return true
		}
		t, err := decodeTable(val)
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, t)
		return true
	})
	if err == nil {
		err = scanErr
	}
	return out, err
}

// isIndexRow reports whether a sys_tables value belongs to an index entry.
func isIndexRow(val []byte) bool {
	vals, err := row.Decode(val)
	if err != nil || len(vals) < 2 || vals[1].Kind != row.KindString {
		return false
	}
	return len(vals[1].Str) > len(indexNamePrefix) && vals[1].Str[:len(indexNamePrefix)] == indexNamePrefix
}

// Columns returns the sys_columns rows for a table, in ordinal order —
// the §1 recovery walkthrough queries these from the snapshot to recreate
// a dropped table's shape.
func Columns(st btree.Store, r Roots, id uint32) ([]row.Column, error) {
	var out []row.Column
	var scanErr error
	from := columnsKey(id, 0)
	to := columnsKey(id+1, 0)
	err := btree.Scan(st, r.Columns, from, to, func(_, val []byte) bool {
		vals, err := row.Decode(val)
		if err != nil || len(vals) != 2 {
			scanErr = fmt.Errorf("catalog: bad sys_columns row: %v", err)
			return false
		}
		out = append(out, row.Column{Name: vals[0].Str, Kind: row.Kind(vals[1].Int)})
		return true
	})
	if err == nil {
		err = scanErr
	}
	return out, err
}

// MaxObjectID returns the highest object id in use (0 if none). The engine
// assigns object ids as MaxObjectID+1 under the DDL lock.
func MaxObjectID(st btree.Store, r Roots) (uint32, error) {
	var maxID uint32
	err := btree.Scan(st, r.Tables, nil, nil, func(_, val []byte) bool {
		vals, err := row.Decode(val)
		if err == nil && len(vals) > 0 && uint32(vals[0].Int) > maxID {
			maxID = uint32(vals[0].Int)
		}
		return true
	})
	return maxID, err
}
