package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// TestReplicaBatchSpanningRotation: a shipped batch far larger than the
// replica's segment capacity rotates the local log mid-batch; a batch cut
// mid-record past several rotations still leaves the replica at the exact
// CRC boundary, and the next session resumes there and completes.
func TestReplicaBatchSpanningRotation(t *testing.T) {
	clock := vclock.New(time.Time{})
	prim := buildSourceDB(t, clock)
	fp := newFakePrimary(t, prim)
	boundary := recordBoundary(t, fp.raw)
	cut := boundary + 9

	rep, err := OpenReplica(t.TempDir(), ReplicaOptions{
		Engine: engine.Options{Clock: clock, LogSegmentBytes: 4 << 10, SyncPolicy: testSyncPolicy(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	pc, rc := Pipe()
	done := make(chan error, 1)
	go func() { done <- rep.Run(rc) }()
	fp.accept(pc)
	fp.drainAcks()
	fp.sendRange(0, cut) // one batch spanning many 4 KiB rotations
	deadline := time.Now().Add(5 * time.Second)
	for rep.AppliedLSN() < wal.LSN(boundary) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %v, want %v", rep.AppliedLSN(), boundary)
		}
		time.Sleep(time.Millisecond)
	}
	pc.Close()
	if err := <-done; err != nil {
		t.Fatalf("torn session should end cleanly, got %v", err)
	}
	if got := rep.DB().Log().Size(); got != int64(boundary) {
		t.Fatalf("local log holds %d bytes, want %d", got, boundary)
	}
	if segs := rep.DB().Log().Segments(); len(segs) < 2 {
		t.Fatalf("batch did not rotate the local log: %d segments", len(segs))
	}

	pc2, rc2 := Pipe()
	done2 := make(chan error, 1)
	go func() { done2 <- rep.Run(rc2) }()
	if from := fp.accept(pc2); from != wal.LSN(boundary)+1 {
		t.Fatalf("resumed subscription at %v, want %v", from, wal.LSN(boundary)+1)
	}
	fp.drainAcks()
	fp.sendRange(boundary, len(fp.raw))
	deadline = time.Now().Add(5 * time.Second)
	for rep.AppliedLSN() < wal.LSN(len(fp.raw)) {
		if time.Now().After(deadline) {
			t.Fatal("replica never finished after rotation-spanning resume")
		}
		time.Sleep(time.Millisecond)
	}
	pc2.Close()
	<-done2
	if segs := rep.DB().Log().Segments(); len(segs) < 3 {
		t.Fatalf("full history did not rotate the local log: %d segments", len(segs))
	}

	// The local log is byte-identical to the primary's despite the
	// different segment layout (4 KiB segments here, default there).
	back := make([]byte, len(fp.raw))
	if n, err := rep.DB().Log().ReadDurable(back, 0); err != nil || n != len(back) {
		t.Fatalf("read local log: n=%d err=%v", n, err)
	}
	for i := range back {
		if back[i] != fp.raw[i] {
			t.Fatalf("local log diverges at offset %d", i)
		}
	}
	db, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *engine.Txn) error {
		n, err := tx.CountRows("torn", nil, nil)
		if err != nil {
			return err
		}
		if n != 200 {
			return fmt.Errorf("replica has %d rows, want 200", n)
		}
		return nil
	})
	db.Close()
}

// TestReseedPromoteBeforeBackupCheckpoint: a standby reseeded from a backup
// and promoted before it ingested the backup's checkpoint writes its own
// checkpoint where the primary's was. Its boot record still names that
// checkpoint, so the new record must not take it for its predecessor: a
// checkpoint chain that does not descend hangs every walk of it (retention,
// the checkpoint index on reopen).
func TestReseedPromoteBeforeBackupCheckpoint(t *testing.T) {
	clock := vclock.New(time.Time{})
	dir := t.TempDir()
	prim, err := engine.Open(filepath.Join(dir, "primary"), engine.Options{Clock: clock, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("rs")) })
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.Insert("rs", testRow(1, "one", 1)) })
	man, err := backup.Full(prim, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}

	rsDir := filepath.Join(dir, "reseeded")
	if err := ReseedFromBackup(rsDir, man); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(rsDir, ReplicaOptions{Engine: engine.Options{
		Clock: clock, SyncPolicy: testSyncPolicy(t), Retention: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var db *engine.DB
	done := make(chan error, 1)
	go func() {
		var err error
		if db, err = rep.Promote(); err == nil {
			clock.Advance(time.Hour) // every checkpoint below the retention horizon
			err = db.Checkpoint()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("promotion never returned: a retention walk is stuck in the checkpoint chain")
	}
	for cur := db.LastCheckpointEnd(); cur != wal.NilLSN; {
		rec, err := db.Log().Read(cur)
		if err != nil {
			t.Fatal(err)
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			t.Fatal(err)
		}
		if data.PrevEnd >= cur {
			t.Fatalf("checkpoint end %v names %v as its predecessor", cur, data.PrevEnd)
		}
		cur = data.PrevEnd
	}
	rep.Close() // not deferred: a stuck promotion holds the replica
}

// belowHorizonPrimary opens a primary with a retention archive, takes a
// full backup, and writes on until retention has moved the backup
// checkpoint's segment into the archive. Then it removes the archived
// segments prune selects, as an operator pruning what backups cover would.
// The backup checkpoint lies below the primary's live segment floor, so a
// replica reseeded from it needs archived bytes over the stream.
func belowHorizonPrimary(t *testing.T, dir string, clock *vclock.Clock, prune func(seg wal.SegmentInfo, backupLSN wal.LSN) bool) (*engine.DB, backup.Manifest, func(lo, n int)) {
	t.Helper()
	archiveDir := filepath.Join(dir, "archive")
	prim, err := engine.Open(filepath.Join(dir, "primary"), engine.Options{
		Clock:           clock,
		Retention:       time.Minute,
		LogSegmentBytes: 4 << 10,
		LogArchiveDir:   archiveDir,
		SyncPolicy:      testSyncPolicy(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })

	insert := func(lo, n int) {
		mustExec(t, prim, func(tx *engine.Txn) error {
			for i := lo; i < lo+n; i++ {
				if err := tx.Insert("rs", testRow(i, fmt.Sprintf("row-%d", i), i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("rs")) })
	insert(0, 100)

	// Backup at T0, then enough post-backup history and checkpoints that
	// retention truncates ABOVE the backup LSN: the replay range from the
	// backup checkpoint onward is only partly on the live log — the rest
	// is in the archive.
	man, err := backup.Full(prim, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	insert(100, 150)
	clock.Advance(10 * time.Minute)
	if err := prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(250, 150)
	clock.Advance(10 * time.Minute)
	if err := prim.Checkpoint(); err != nil { // horizon passes the middle checkpoint
		t.Fatal(err)
	}
	if floor := prim.Log().SegmentFloor(); man.BackupLSN >= floor {
		t.Fatalf("live segment floor %v did not pass the backup LSN %v; test layout broken", floor, man.BackupLSN)
	}

	archSegs, err := wal.ListSegments(archiveDir)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, seg := range archSegs {
		if prune(seg, man.BackupLSN) {
			if err := os.Remove(seg.Path); err != nil {
				t.Fatal(err)
			}
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatalf("pruned no archived segment around the backup LSN %v; test layout broken", man.BackupLSN)
	}
	return prim, man, insert
}

// TestReseedFromBackupBelowRetentionHorizon is the acceptance test for
// reseed: a fresh replica's subscription is rejected because the primary's
// retention already truncated (and archived) the history it needs;
// ReseedFromBackup rebuilds it from the backup image alone, the stream
// serves the archived and live log from the backup checkpoint on, and an
// as-of query on the reseeded standby is byte-identical to the primary's.
func TestReseedFromBackupBelowRetentionHorizon(t *testing.T) {
	clock := vclock.New(time.Time{})
	dir := t.TempDir()
	// The operator prunes archived segments the backup already covers —
	// the realistic archive lifecycle, and what forces a from-scratch
	// subscription to reseed instead of replaying the archive from LSN 1.
	prim, man, insert := belowHorizonPrimary(t, dir, clock, func(seg wal.SegmentInfo, backupLSN wal.LSN) bool {
		return seg.End <= backupLSN
	})
	ship := NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship.Close()

	// A plain empty-directory replica is told to reseed.
	rep0, err := OpenReplica(filepath.Join(dir, "fresh"), ReplicaOptions{Engine: engine.Options{Clock: clock, SyncPolicy: testSyncPolicy(t)}})
	if err != nil {
		t.Fatal(err)
	}
	pc0, rc0 := Pipe()
	go func() { _ = ship.Serve(pc0) }()
	if err := rep0.Run(rc0); !errors.Is(err, ErrSubscriptionRejected) {
		t.Fatalf("empty-dir subscription below the horizon: err=%v, want ErrSubscriptionRejected", err)
	}
	rep0.Close()

	// Reseed, reopen, resubscribe. The reseeded log holds no record: every
	// byte from the backup checkpoint on, archived ones included, arrives
	// over the stream.
	repDir := filepath.Join(dir, "reseeded")
	if err := ReseedFromBackup(repDir, man); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(filepath.Join(repDir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Base != man.BackupLSN || segs[0].End != man.BackupLSN {
		t.Fatalf("reseeded log %+v, want one empty segment based at %v", segs, man.BackupLSN)
	}
	archFloor, _ := prim.Log().Floor()
	t.Logf("backup at %v, primary's live segment floor %v, archive floor %v", man.BackupLSN, prim.Log().SegmentFloor(), archFloor)
	rep, err := OpenReplica(repDir, ReplicaOptions{Engine: engine.Options{Clock: clock, LogSegmentBytes: 4 << 10, SyncPolicy: testSyncPolicy(t)}})
	if err != nil {
		t.Fatalf("open reseeded replica: %v", err)
	}
	defer rep.Close()
	if rep.AppliedLSN() < man.BackupLSN-1 {
		t.Fatalf("reseeded replica applied %v, want at least %v", rep.AppliedLSN(), man.BackupLSN-1)
	}

	pc, rc := Pipe()
	done := make(chan error, 1)
	go func() { _ = ship.Serve(pc) }()
	go func() { done <- rep.Run(rc) }()
	target := prim.Log().FlushedLSN()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("reseeded replica stuck at %v, want %v", rep.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}

	// Live writes keep streaming to the reseeded standby.
	insert(400, 50)
	target = prim.Log().FlushedLSN()
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("reseeded replica stuck at %v after live writes", rep.AppliedLSN())
		}
		time.Sleep(time.Millisecond)
	}

	// Byte-identical as-of serving: same SplitLSN, same tree digests.
	clock.Advance(time.Second)
	asOf := clock.Now().Add(-500 * time.Millisecond)
	ps, err := asof.CreateSnapshot(prim, asOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rs, err := rep.SnapshotAsOf(asOf)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if p, r := ps.SplitLSN(), rs.SplitLSN(); p != r {
		t.Fatalf("split divergence: primary %v, reseeded replica %v", p, r)
	}
	pd, rd := digest(t, ps), digest(t, rs)
	if len(pd) == 0 {
		t.Fatal("primary snapshot has no tables")
	}
	if fmt.Sprint(pd) != fmt.Sprint(rd) {
		t.Fatalf("as-of digests diverge after reseed:\nprimary: %v\nreplica: %v", pd, rd)
	}

	pc.Close()
	rc.Close()
	<-done
}

// TestReseedFromBackupBelowFloorRejected: a replica reseeded from a backup
// whose checkpoint the primary no longer holds, live or archived, is
// refused at subscription with the primary's floor named, instead of
// streaming from a later byte and skipping the gap.
func TestReseedFromBackupBelowFloorRejected(t *testing.T) {
	clock := vclock.New(time.Time{})
	dir := t.TempDir()
	// Prune through the archived segment holding the backup checkpoint.
	prim, man, _ := belowHorizonPrimary(t, dir, clock, func(seg wal.SegmentInfo, backupLSN wal.LSN) bool {
		return seg.Base <= backupLSN
	})
	floor, _ := prim.Log().Floor()
	if man.BackupLSN >= floor {
		t.Fatalf("primary floor %v did not pass the backup LSN %v; test layout broken", floor, man.BackupLSN)
	}
	ship := NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship.Close()

	repDir := filepath.Join(dir, "reseeded")
	if err := ReseedFromBackup(repDir, man); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(repDir, ReplicaOptions{Engine: engine.Options{Clock: clock, SyncPolicy: testSyncPolicy(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	pc, rc := Pipe()
	go func() { _ = ship.Serve(pc) }()
	err = rep.Run(rc)
	if !errors.Is(err, ErrSubscriptionRejected) {
		t.Fatalf("subscription below the primary's floor: err=%v, want ErrSubscriptionRejected", err)
	}
	if want := fmt.Sprintf("floor %v", floor); !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name the %s", err, want)
	}
	if got := rep.AppliedLSN(); got != man.BackupLSN-1 {
		t.Fatalf("refused replica applied %v, want the backup position %v", got, man.BackupLSN-1)
	}
}

// TestReseedRefusesToClobber: reseeding into a directory that already holds
// replica state fails loudly instead of overwriting it.
func TestReseedRefusesToClobber(t *testing.T) {
	clock := vclock.New(time.Time{})
	dir := t.TempDir()
	prim, err := engine.Open(filepath.Join(dir, "p"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("c")) })
	man, err := backup.Full(prim, filepath.Join(dir, "c.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	repDir := filepath.Join(dir, "r")
	rep, err := OpenReplica(repDir, ReplicaOptions{Engine: engine.Options{Clock: clock}})
	if err != nil {
		t.Fatal(err)
	}
	rep.Close()
	if err := ReseedFromBackup(repDir, man); err == nil {
		t.Fatal("reseed over an existing replica directory should fail")
	}
}
