package engine

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/row"
	"repro/internal/txn"
)

// ddlObject is the lock-manager object id serializing DDL.
const ddlObject uint32 = 0

// ErrRowExists is returned when inserting a duplicate primary key.
var ErrRowExists = errors.New("engine: row already exists")

// ErrRowNotFound is returned when a referenced row does not exist.
var ErrRowNotFound = errors.New("engine: row not found")

// Table resolves a table by name, served from the engine's catalog cache on
// the hot path. Transactions that performed DDL read through uncached (they
// must see their own uncommitted catalog changes without polluting the
// cache); the cache is dropped whenever a DDL transaction finishes.
func (tx *Txn) Table(name string) (catalog.Table, error) {
	if tx.didDDL {
		return catalog.LookupByName(tx, tx.db.Roots(), name)
	}
	db := tx.db
	db.idxMu.RLock()
	t, ok := db.tblCache[name]
	ver := db.catVer
	db.idxMu.RUnlock()
	if ok {
		return t, nil
	}
	t, err := catalog.LookupByName(tx, db.Roots(), name)
	if err != nil {
		return t, err
	}
	db.idxMu.Lock()
	if db.catVer == ver {
		db.tblCache[name] = t
	}
	db.idxMu.Unlock()
	return t, nil
}

// Tables lists all user tables.
func (tx *Txn) Tables() ([]catalog.Table, error) {
	return catalog.List(tx, tx.db.Roots())
}

// CreateTable creates a table from a schema. DDL serializes on the DDL lock.
func (tx *Txn) CreateTable(schema *row.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	if err := tx.db.locks.Lock(tx.id, txn.Key{Object: ddlObject}, txn.Exclusive); err != nil {
		return err
	}
	roots := tx.db.Roots()
	maxID, err := catalog.MaxObjectID(tx, roots)
	if err != nil {
		return err
	}
	id := maxID + 1
	if id < 10 {
		id = 10 // leave room below for system object ids
	}
	root, err := btree.Create(tx)
	if err != nil {
		return err
	}
	tx.didDDL = true
	return catalog.Create(tx, roots, catalog.Table{
		ID: id, Name: schema.Name, Root: root, Schema: schema,
	})
}

// DropTable removes a table: its catalog rows are deleted and its pages
// deallocated. Only allocation bits change for the data pages — their
// content survives on disk, which is exactly what lets an as-of snapshot
// mounted before the drop read the table back (§1's walkthrough).
func (tx *Txn) DropTable(name string) error {
	if err := tx.db.locks.Lock(tx.id, txn.Key{Object: ddlObject}, txn.Exclusive); err != nil {
		return err
	}
	t, err := tx.Table(name)
	if err != nil {
		return err
	}
	if err := tx.lockTable(t.ID, txn.Exclusive); err != nil {
		return err
	}
	tx.didDDL = true
	// Indexes depend on the table: drop them first.
	indexes, err := catalog.IndexesOf(tx, tx.db.Roots(), t.ID)
	if err != nil {
		return err
	}
	for _, ix := range indexes {
		if _, err := catalog.DropIndex(tx, tx.db.Roots(), ix.Name); err != nil {
			return err
		}
		if err := btree.Drop(tx, ix.Root); err != nil {
			return err
		}
	}
	if _, err := catalog.Drop(tx, tx.db.Roots(), name); err != nil {
		return err
	}
	return btree.Drop(tx, t.Root)
}

// Insert adds a row (primary key must be new).
func (tx *Txn) Insert(table string, r row.Row) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	if err := r.CheckAgainst(t.Schema); err != nil {
		return err
	}
	key := row.EncodeKey(r.Key(t.Schema))
	if err := tx.lockRow(t.ID, key, txn.Exclusive); err != nil {
		return err
	}
	if err := btree.Insert(tx, t.Root, key, row.Encode(r)); err != nil {
		if errors.Is(err, btree.ErrKeyExists) {
			return fmt.Errorf("%w: %s", ErrRowExists, t.Schema.Name)
		}
		return err
	}
	return tx.maintainIndexesCached(t, nil, r)
}

// Update replaces the row with r's primary key.
func (tx *Txn) Update(table string, r row.Row) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	if err := r.CheckAgainst(t.Schema); err != nil {
		return err
	}
	key := row.EncodeKey(r.Key(t.Schema))
	if err := tx.lockRow(t.ID, key, txn.Exclusive); err != nil {
		return err
	}
	var oldRow row.Row
	if tx.tableHasIndexes(t) {
		if oldVal, ok, err := btree.Get(tx, t.Root, key); err != nil {
			return err
		} else if ok {
			if oldRow, err = row.Decode(oldVal); err != nil {
				return err
			}
		}
	}
	if err := btree.Update(tx, t.Root, key, row.Encode(r)); err != nil {
		if errors.Is(err, btree.ErrKeyNotFound) {
			return fmt.Errorf("%w: %s", ErrRowNotFound, t.Schema.Name)
		}
		return err
	}
	return tx.maintainIndexesCached(t, oldRow, r)
}

// Delete removes the row with the given primary key values.
func (tx *Txn) Delete(table string, keyVals row.Row) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	key := row.EncodeKey(keyVals)
	if err := tx.lockRow(t.ID, key, txn.Exclusive); err != nil {
		return err
	}
	oldVal, err := btree.Delete(tx, t.Root, key)
	if err != nil {
		if errors.Is(err, btree.ErrKeyNotFound) {
			return fmt.Errorf("%w: %s", ErrRowNotFound, t.Schema.Name)
		}
		return err
	}
	if tx.tableHasIndexes(t) {
		oldRow, err := row.Decode(oldVal)
		if err != nil {
			return err
		}
		return tx.maintainIndexesCached(t, oldRow, nil)
	}
	return nil
}

// Get fetches the row with the given primary key values.
func (tx *Txn) Get(table string, keyVals row.Row) (row.Row, bool, error) {
	t, err := tx.Table(table)
	if err != nil {
		return nil, false, err
	}
	key := row.EncodeKey(keyVals)
	if err := tx.lockRow(t.ID, key, txn.Shared); err != nil {
		return nil, false, err
	}
	val, ok, err := btree.Get(tx, t.Root, key)
	if err != nil || !ok {
		return nil, false, err
	}
	r, err := row.Decode(val)
	return r, true, err
}

// GetMany fetches the rows with the given primary keys, one Get each; the
// result has one entry per key, nil where no row exists. (An as-of snapshot
// answers the same call by rewinding the keys' pages together.)
func (tx *Txn) GetMany(table string, keys []row.Row) ([]row.Row, error) {
	out := make([]row.Row, len(keys))
	for i, k := range keys {
		var err error
		if out[i], _, err = tx.Get(table, k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan iterates rows with primary keys in [from, to) in key order. from/to
// are partial key prefixes (nil = unbounded). The scan takes a table-level
// shared lock instead of row locks, so it never observes uncommitted rows.
func (tx *Txn) Scan(table string, from, to row.Row, fn func(row.Row) bool) error {
	t, err := tx.Table(table)
	if err != nil {
		return err
	}
	if err := tx.lockTable(t.ID, txn.Shared); err != nil {
		return err
	}
	var fromKey, toKey []byte
	if from != nil {
		fromKey = row.EncodeKey(from)
	}
	if to != nil {
		toKey = row.EncodeKey(to)
	}
	var decodeErr error
	err = btree.Scan(tx, t.Root, fromKey, toKey, func(_, val []byte) bool {
		r, err := row.Decode(val)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(r)
	})
	if err == nil {
		err = decodeErr
	}
	return err
}

// CountRows counts rows in [from, to).
func (tx *Txn) CountRows(table string, from, to row.Row) (int, error) {
	n := 0
	err := tx.Scan(table, from, to, func(row.Row) bool {
		n++
		return true
	})
	return n, err
}

// Table-level locks are striped: intention modes (every row operation)
// lock only the stripe picked by the transaction id, so concurrent DML on
// the same table never serializes on one lock-manager entry; table-granular
// S/X requests (scans, DDL) acquire every stripe, meeting each intent
// holder at its stripe. The stripe row-key prefix cannot collide with real
// encoded row keys on the same object because it is only ever locked with
// Object == tableID where real row locks use the same namespace — the
// 0xFF,0xFF prefix is outside row.EncodeKey's output alphabet for leading
// bytes of sane schemas, and even a collision would only cost a spurious
// wait, never a correctness violation.
const tableStripes = 16

// stripeRows are the interned stripe row-key suffixes (building them per
// acquisition would put a string concatenation on every DML operation).
var stripeRows = func() [tableStripes]string {
	var rows [tableStripes]string
	for i := range rows {
		rows[i] = "\xff\xffstripe:" + string(rune('a'+i))
	}
	return rows
}()

func stripeKey(tableID uint32, stripe int) txn.Key {
	return txn.Key{Object: tableID, Row: stripeRows[stripe]}
}

// lockTableIntent takes the striped intention lock on the table.
func (tx *Txn) lockTableIntent(tableID uint32, intent txn.Mode) error {
	return tx.db.locks.Lock(tx.id, stripeKey(tableID, int(tx.id%tableStripes)), intent)
}

// lockTable takes a table-granular lock (Shared for scans, Exclusive for
// DDL): the whole-table key plus every stripe, in fixed order.
func (tx *Txn) lockTable(tableID uint32, mode txn.Mode) error {
	if err := tx.db.locks.Lock(tx.id, txn.Key{Object: tableID}, mode); err != nil {
		return err
	}
	for i := 0; i < tableStripes; i++ {
		if err := tx.db.locks.Lock(tx.id, stripeKey(tableID, i), mode); err != nil {
			return err
		}
	}
	return nil
}

// lockRow takes the intention lock on the table and the row lock.
func (tx *Txn) lockRow(tableID uint32, key []byte, mode txn.Mode) error {
	intent := txn.IntentShared
	if mode == txn.Exclusive {
		intent = txn.IntentExclusive
	}
	if err := tx.lockTableIntent(tableID, intent); err != nil {
		return err
	}
	return tx.db.locks.Lock(tx.id, txn.Key{Object: tableID, Row: string(key)}, mode)
}
