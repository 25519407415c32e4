// Package asofdb is a from-scratch Go reproduction of "Transaction Log
// Based Application Error Recovery and Point In-Time Query" (Talius,
// Dhamankar, Dumitrache, Kodavalla — VLDB 2012).
//
// It provides an embedded, ARIES-style transactional storage engine whose
// transaction log is extended (per §4.2 of the paper) so that any page can
// be physically rewound to an arbitrary earlier LSN, and exposes the
// paper's primary contribution: as-of database snapshots — read-only,
// transactionally consistent views of the database as of any wall-clock
// time within a retention period, materialized lazily (only the pages a
// query touches are unwound), backed by a sparse side file.
//
// Typical use, mirroring the paper's §1 walkthrough of recovering a table
// dropped by mistake:
//
//	db, _ := asofdb.Open(dir, asofdb.Options{})
//	...
//	// catastrophe: someone drops a table
//	// recovery: mount a snapshot as of five minutes ago
//	snap, _ := asofdb.SnapshotAsOf(db, time.Now().Add(-5*time.Minute))
//	defer snap.Close()
//	tbl, _ := snap.Table("customers")        // as-of catalog still has it
//	tx, _ := db.Begin()
//	tx.CreateTable(tbl.Schema)               // recreate in the present
//	snap.Scan("customers", nil, nil, func(r asofdb.Row) bool {
//		return tx.Insert("customers", r) == nil // reconcile
//	})
//	tx.Commit()
//
// The package also ships the comparison baseline the paper evaluates
// against (full backup + point-in-time restore via log replay), the
// scaled-down TPC-C workload of §6, and an experiment harness regenerating
// every figure of the evaluation (cmd/asofbench).
package asofdb

import (
	"time"

	"repro/internal/asof"
	"repro/internal/backup"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/wal"
)

// DB is an open database. See engine.DB for the full method set:
// Begin, Checkpoint, Close, SetRetention, ...
type DB = engine.DB

// Options configures Open. The zero value is production defaults; the
// PageImageEvery, DataDevice/LogDevice and ablation fields configure the
// paper's experiments.
type Options = engine.Options

// Txn is a transaction: Insert/Update/Delete/Get/Scan/CreateTable/
// DropTable, ended by Commit or Rollback.
type Txn = engine.Txn

// Snapshot is an as-of database snapshot (§5 of the paper): a read-only,
// transactionally consistent view of the database as of a past time.
type Snapshot = asof.Snapshot

// Schema, Column, Row and Value describe tables and rows.
type (
	Schema = row.Schema
	Column = row.Column
	Row    = row.Row
	Value  = row.Value
)

// Column kinds.
const (
	KindInt64   = row.KindInt64
	KindFloat64 = row.KindFloat64
	KindString  = row.KindString
	KindBytes   = row.KindBytes
	KindBool    = row.KindBool
	KindTime    = row.KindTime
)

// Value constructors, re-exported for building rows.
var (
	Int64   = row.Int64
	Float64 = row.Float64
	String  = row.String
	Bytes   = row.BytesVal
	Bool    = row.Bool
	Time    = row.Time
	Null    = row.Null
)

// Table is a catalog entry (name, object id, schema, root page).
type Table = catalog.Table

// LSN is a log sequence number.
type LSN = wal.LSN

// SyncPolicy selects log-force durability (Options.SyncPolicy): SyncNone
// keeps the buffered-write crash model, SyncData makes every group-commit
// flush an fdatasync-class log force. See also Options.LogSegmentBytes
// (WAL segment capacity) and Options.LogArchiveDir (retention archive that
// serves replicas resuming, or reseeded from a backup, below the live log).
type SyncPolicy = wal.SyncPolicy

// Sync policies for Options.SyncPolicy.
const (
	SyncNone = wal.SyncNone
	SyncData = wal.SyncData
)

// Open opens (creating if needed) the database in dir, running crash
// recovery when the previous process died uncleanly.
func Open(dir string, opts Options) (*DB, error) {
	return engine.Open(dir, opts)
}

// SnapshotAsOf mounts an as-of snapshot of db at the given time — the
// paper's CREATE DATABASE ... AS SNAPSHOT OF ... AS OF '<time>' (§5.1).
// The time must lie within the database's retention period (§4.3).
// Close the snapshot to drop it and reclaim its side file.
func SnapshotAsOf(db *DB, at time.Time) (*Snapshot, error) {
	return asof.CreateSnapshot(db, at, nil)
}

// SnapshotAtLSN mounts a snapshot at an explicit log sequence number.
func SnapshotAtLSN(db *DB, lsn LSN) (*Snapshot, error) {
	return asof.CreateSnapshotAtLSN(db, lsn, nil)
}

// ErrBeyondRetention is returned by SnapshotAsOf for times older than the
// retention period.
var ErrBeyondRetention = asof.ErrBeyondRetention

// BackupManifest describes a full backup taken with BackupFull.
type BackupManifest = backup.Manifest

// RestoredDB is a backup restored to a point in time — the traditional
// recovery baseline (§6.2). It serves the same read-only query surface as
// a Snapshot.
type RestoredDB = backup.Restored

// BackupFull takes a full backup of db into path.
func BackupFull(db *DB, path string) (BackupManifest, error) {
	return backup.Full(db, path, nil)
}

// RestorePointInTime restores a backup to destPath and rolls it forward to
// the newest transaction committed at or before target, replaying db's
// transaction log.
func RestorePointInTime(db *DB, m BackupManifest, target time.Time, destPath string) (*RestoredDB, error) {
	return backup.RestoreToTime(m, db.Log(), target, destPath, nil)
}

// Media profiles for experiments that charge simulated I/O.
var (
	MediaSSD = media.SSD
	MediaSAS = media.SAS
	MediaRAM = media.RAM
)

// --- transaction-level undo (the §8 extension) ---

// CommitInfo describes a committed transaction found by FindCommits.
type CommitInfo = asof.CommitInfo

// UndoReport summarizes an UndoTransaction call.
type UndoReport = asof.UndoReport

// ErrUndoConflict reports that rows touched by the transaction being
// undone were modified afterwards by others.
var ErrUndoConflict = asof.ErrUndoConflict

// FindCommits lists transactions committed in [from, to] — the discovery
// step before undoing a specific one.
func FindCommits(db *DB, from, to time.Time) ([]CommitInfo, error) {
	return asof.FindCommits(db, from, to)
}

// UndoTransaction reverses one committed transaction as a new compensating
// transaction, preserving unrelated later work (the extension §8 of the
// paper names as future work). Conflicting later changes abort the undo
// with ErrUndoConflict unless force is set.
func UndoTransaction(db *DB, commitLSN LSN, force bool) (UndoReport, error) {
	return asof.UndoTransaction(db, commitLSN, force)
}
