package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// fakePrimary hand-drives a replica session: it owns the primary end of a
// pipe and sends exactly the frames a test scripts, so batches can be cut
// mid-record or corrupted at will.
type fakePrimary struct {
	t    *testing.T
	db   *engine.DB
	raw  []byte // the primary's full durable log image
	conn Conn
}

func newFakePrimary(t *testing.T, db *engine.DB) *fakePrimary {
	t.Helper()
	size := db.Log().Size()
	raw := make([]byte, size)
	if n, err := db.Log().ReadDurable(raw, 0); err != nil || int64(n) != size {
		t.Fatalf("read primary log: n=%d err=%v", n, err)
	}
	return &fakePrimary{t: t, db: db, raw: raw}
}

// accept waits for the replica's subscribe and replies with hello.
func (f *fakePrimary) accept(conn Conn) wal.LSN {
	f.t.Helper()
	f.conn = conn
	req, err := conn.Recv()
	if err != nil {
		f.t.Fatal(err)
	}
	if req.Kind != KindSubscribe {
		f.t.Fatalf("expected subscribe, got %v", req.Kind)
	}
	err = conn.Send(&Frame{
		Kind:    KindHello,
		From:    req.From,
		Durable: wal.LSN(len(f.raw)),
		Payload: encodeBootInfo(bootInfo{
			Roots:     f.db.Roots(),
			CreatedAt: f.db.CreatedAt().UnixNano(),
			TruncLSN:  1,
		}),
	})
	if err != nil {
		f.t.Fatal(err)
	}
	return req.From
}

// sendRange ships raw log bytes [from, to) as one batch (LSN = offset+1).
func (f *fakePrimary) sendRange(from, to int) {
	f.t.Helper()
	err := f.conn.Send(&Frame{
		Kind:    KindBatch,
		From:    wal.LSN(from + 1),
		Durable: wal.LSN(len(f.raw)),
		Payload: append([]byte(nil), f.raw[from:to]...),
	})
	if err != nil {
		f.t.Fatal(err)
	}
}

// drainAcks consumes replica acks so pipe buffers never fill.
func (f *fakePrimary) drainAcks() {
	conn := f.conn // capture: accept() rebinds f.conn for later sessions
	go func() {
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
}

// buildSourceDB creates a primary with some committed history.
func buildSourceDB(t *testing.T, clock *vclock.Clock) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{Now: clock.Now, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("torn")) })
	for b := 0; b < 4; b++ {
		mustExec(t, db, func(tx *engine.Txn) error {
			for i := 0; i < 50; i++ {
				if err := tx.Insert("torn", testRow(b*50+i, "v", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return db
}

// recordBoundary returns a frame boundary offset near the middle of the
// raw log image (scanning frames from 0).
func recordBoundary(t *testing.T, raw []byte) int {
	t.Helper()
	off := 0
	for off < len(raw)/2 {
		_, size, ok, err := wal.NextFrame(raw[off:])
		if err != nil || !ok {
			t.Fatalf("bad frame at %d: ok=%v err=%v", off, ok, err)
		}
		off += size
	}
	return off
}

// scanStretch is the size of one read of the engine's forward log scan
// (wal's scanStretch): the inputs below put records and tears against it.
const scanStretch = 32 << 10

// wideCheckpoint leaves n transactions in flight across a checkpoint, so its
// checkpoint-end record (24 bytes per in-flight transaction) is longer than
// one scan read, then rolls them back.
func wideCheckpoint(t *testing.T, db *engine.DB, n int) {
	t.Helper()
	var open []*engine.Txn
	for i := 0; i < n; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("torn", testRow(10000+i, "wide", i)); err != nil {
			t.Fatal(err)
		}
		open = append(open, tx)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, tx := range open {
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// sourceLayout is where the records of a source log built by buildSourceDB
// and wideCheckpoint sit against the scan's read stretches.
type sourceLayout struct {
	mid       int // a record boundary near the middle of the log
	atStretch int // the last record boundary at or below the first stretch end
	straddle  int // the end of the record spanning the first stretch end
	wideStart int // where the checkpoint-end longer than a stretch begins
	wideEnd   int // and ends
}

func layoutOf(t *testing.T, raw []byte) sourceLayout {
	t.Helper()
	l := sourceLayout{mid: recordBoundary(t, raw)}
	for off := 0; off < len(raw); {
		_, size, ok, err := wal.NextFrame(raw[off:])
		if err != nil || !ok {
			t.Fatalf("bad frame at %d: ok=%v err=%v", off, ok, err)
		}
		if off <= scanStretch {
			l.atStretch = off
		}
		if off < scanStretch && off+size > scanStretch {
			l.straddle = off + size
		}
		if size > scanStretch {
			l.wideStart, l.wideEnd = off, off+size
		}
		off += size
	}
	if l.straddle == 0 || l.wideEnd == 0 {
		t.Fatalf("source log of %d bytes has no record spanning a stretch end (%d) or no long checkpoint-end (%d)",
			len(raw), l.straddle, l.wideEnd)
	}
	return l
}

// undecodableFrame is a frame whose body passes its CRC but is no record.
func undecodableFrame() []byte {
	body := []byte{byte(wal.TypeCommit)}
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(body))
	return append(f, body...)
}

// TestReplicaTornBatchResumes: a session that dies after delivering a batch
// cut mid-record must leave the replica at the last valid CRC boundary —
// nothing torn in its local log — and a new session resuming from that
// boundary completes the history. The cut falls mid-log, at a scan stretch
// boundary, or inside a checkpoint-end longer than a stretch; with apply
// paused, the backlog is replayed from the local log by the forward scan.
// A CRC-valid record that does not decode, in a backlog or a live batch,
// ends the session with an error and is not rewound away.
func TestReplicaTornBatchResumes(t *testing.T) {
	clock := vclock.New(time.Time{})
	prim := buildSourceDB(t, clock)
	wideCheckpoint(t, prim, 1600)
	fp := newFakePrimary(t, prim)
	l := layoutOf(t, fp.raw)
	cases := []struct {
		name     string
		boundary int  // the last complete record the first session delivers
		cut      int  // where its batch ends
		paused   bool // ingest with apply paused, then replay the backlog
	}{
		{"mid-record", l.mid, l.mid + 9, false},
		{"cut at a stretch boundary", l.atStretch, scanStretch, false},
		{"cut inside a checkpoint-end longer than a stretch", l.wideStart, l.wideStart + scanStretch/2, false},
		{"backlog replayed across stretches", l.wideEnd, l.wideEnd + 9, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{Now: clock.Now, SyncPolicy: testSyncPolicy(t)}})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()

			// Session 1: ship a batch that ends mid-record, then die.
			pc, rc := Pipe()
			done := make(chan error, 1)
			go func() { done <- rep.Run(rc) }()
			if from := fp.accept(pc); from != 1 {
				t.Fatalf("fresh replica subscribed at %v, want 1", from)
			}
			fp.drainAcks()
			if tc.paused {
				rep.PauseApply()
			}
			fp.sendRange(0, tc.cut)
			deadline := time.Now().Add(5 * time.Second)
			for rep.DB().Log().FlushedLSN() < wal.LSN(tc.boundary) {
				if time.Now().After(deadline) {
					t.Fatalf("replica ingested %v, want %v", rep.DB().Log().FlushedLSN(), tc.boundary)
				}
				time.Sleep(time.Millisecond)
			}
			if tc.paused {
				rep.ResumeApply()
				if err := fp.conn.Send(&Frame{Kind: KindHeartbeat, Durable: wal.LSN(len(fp.raw))}); err != nil {
					t.Fatal(err)
				}
			}
			// Give the replica a moment to apply, then kill the session.
			for rep.AppliedLSN() < wal.LSN(tc.boundary) {
				if time.Now().After(deadline) {
					t.Fatalf("replica stuck at %v, want %v", rep.AppliedLSN(), tc.boundary)
				}
				time.Sleep(time.Millisecond)
			}
			pc.Close()
			if err := <-done; err != nil {
				t.Fatalf("torn session should end cleanly, got %v", err)
			}
			if got := rep.AppliedLSN(); got != wal.LSN(tc.boundary) {
				t.Fatalf("applied %v after torn batch, want the valid boundary %v", got, tc.boundary)
			}
			if got := rep.DB().Log().Size(); got != int64(tc.boundary) {
				t.Fatalf("local log holds %d bytes, want only the %d complete ones", got, tc.boundary)
			}

			// Session 2: the replica must resume at the boundary and finish.
			pc2, rc2 := Pipe()
			done2 := make(chan error, 1)
			go func() { done2 <- rep.Run(rc2) }()
			if from := fp.accept(pc2); from != wal.LSN(tc.boundary)+1 {
				t.Fatalf("resumed subscription at %v, want %v", from, wal.LSN(tc.boundary)+1)
			}
			fp.drainAcks()
			fp.sendRange(tc.boundary, len(fp.raw))
			deadline = time.Now().Add(5 * time.Second)
			for rep.AppliedLSN() < wal.LSN(len(fp.raw)) {
				if time.Now().After(deadline) {
					t.Fatalf("replica stuck at %v, want %v", rep.AppliedLSN(), len(fp.raw))
				}
				time.Sleep(time.Millisecond)
			}
			pc2.Close()
			if err := <-done2; err != nil {
				t.Fatal(err)
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
					return fmt.Errorf("replica has %d rows after torn resume, want 200", n)
				}
				return nil
			})
			db.Close()
		})
	}

	// A CRC-valid record that does not decode reaches the local log either
	// way — framing checks only CRCs — and ends the session when the one
	// apply path reaches it: replaying the backlog, or applying a live batch.
	for _, paused := range []bool{true, false} {
		name := "undecodable record in the backlog"
		if !paused {
			name = "undecodable record in a live batch"
		}
		t.Run(name, func(t *testing.T) {
			rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{Now: clock.Now, SyncPolicy: testSyncPolicy(t)}})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			pc, rc := Pipe()
			defer pc.Close()
			done := make(chan error, 1)
			go func() { done <- rep.Run(rc) }()
			fp.accept(pc)
			fp.drainAcks()
			if paused {
				rep.PauseApply()
			}
			payload := append(append([]byte(nil), fp.raw[:l.straddle]...), undecodableFrame()...)
			if err := fp.conn.Send(&Frame{Kind: KindBatch, From: 1, Durable: wal.LSN(len(payload)), Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if paused {
				deadline := time.Now().Add(5 * time.Second)
				for rep.DB().Log().FlushedLSN() < wal.LSN(len(payload)) {
					if time.Now().After(deadline) {
						t.Fatalf("replica ingested %v, want %v", rep.DB().Log().FlushedLSN(), len(payload))
					}
					time.Sleep(time.Millisecond)
				}
				rep.ResumeApply()
				if err := fp.conn.Send(&Frame{Kind: KindHeartbeat, Durable: wal.LSN(len(payload))}); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("applying an undecodable record ended the session cleanly")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("replica never rejected the undecodable record")
			}
			if got := rep.AppliedLSN(); got != wal.LSN(l.straddle) {
				t.Fatalf("applied %v, want %v: the records before the undecodable one", got, l.straddle)
			}
			if got := rep.DB().Log().Size(); got != int64(len(payload)) {
				t.Fatalf("local log holds %d bytes, want all %d: an undecodable record is not a tear", got, len(payload))
			}
		})
	}
}

// TestReplicaRejectsCorruptBatch: a bit flip inside a shipped record fails
// the CRC and aborts the session before anything reaches the local log.
func TestReplicaRejectsCorruptBatch(t *testing.T) {
	clock := vclock.New(time.Time{})
	prim := buildSourceDB(t, clock)
	fp := newFakePrimary(t, prim)

	rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{Now: clock.Now, SyncPolicy: testSyncPolicy(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	pc, rc := Pipe()
	done := make(chan error, 1)
	go func() { done <- rep.Run(rc) }()
	fp.accept(pc)
	fp.drainAcks()

	bad := append([]byte(nil), fp.raw...)
	bad[len(bad)/2] ^= 0x55
	if err := fp.conn.Send(&Frame{Kind: KindBatch, From: 1, Durable: wal.LSN(len(bad)), Payload: bad}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("corrupt batch accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replica never rejected the corrupt batch")
	}
	pc.Close()
}

// TestReplicaCrashTornLocalLogRecovers: a replica that crashes mid-ingest
// (its local log file torn mid-record) reopens, truncates to the valid
// boundary, and resumes from there. The tear follows the persisted apply
// position or, with the apply state lost so that the restart replays the
// whole local log, falls at a scan stretch boundary, past a record spanning
// one, or past a checkpoint-end longer than one. A CRC-valid record that
// does not decode fails the reopen instead of being cut away.
func TestReplicaCrashTornLocalLogRecovers(t *testing.T) {
	clock := vclock.New(time.Time{})
	prim := buildSourceDB(t, clock)
	wideCheckpoint(t, prim, 1600)
	fp := newFakePrimary(t, prim)
	l := layoutOf(t, fp.raw)
	opts := ReplicaOptions{Engine: engine.Options{Now: clock.Now, SyncPolicy: testSyncPolicy(t)}}
	cases := []struct {
		name      string
		boundary  int    // what the replica ingested before the crash
		torn      []byte // the partial write the crash left past it
		dropState bool   // the apply state was lost: replay the whole local log
		corrupt   bool   // torn is a whole record that must fail the reopen
	}{
		{"partial record past the applied end", l.mid, fp.raw[l.mid : l.mid+11], false, false},
		{"torn at a stretch boundary", l.atStretch, fp.raw[l.atStretch:scanStretch], true, false},
		{"past a record spanning a stretch boundary", l.straddle, fp.raw[l.straddle : l.straddle+11], true, false},
		{"past a checkpoint-end longer than a stretch", l.wideEnd, fp.raw[l.wideEnd : l.wideEnd+11], true, false},
		{"undecodable record", l.mid, undecodableFrame(), false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := OpenReplica(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			pc, rc := Pipe()
			done := make(chan error, 1)
			go func() { done <- rep.Run(rc) }()
			fp.accept(pc)
			fp.drainAcks()
			fp.sendRange(0, tc.boundary)
			deadline := time.Now().Add(5 * time.Second)
			for rep.AppliedLSN() < wal.LSN(tc.boundary) {
				if time.Now().After(deadline) {
					t.Fatal("replica never ingested")
				}
				time.Sleep(time.Millisecond)
			}
			pc.Close()
			<-done
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.dropState {
				if err := os.Remove(filepath.Join(dir, "replica.state")); err != nil {
					t.Fatal(err)
				}
			}

			// Simulate a torn local write: the crashed process had appended a
			// partial record past the boundary (into the tail segment file).
			segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			lf, err := os.OpenFile(segs[len(segs)-1].Path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lf.Write(tc.torn); err != nil {
				t.Fatal(err)
			}
			lf.Close()

			rep2, err := OpenReplica(dir, opts)
			if tc.corrupt {
				if err == nil {
					rep2.Close()
					t.Fatal("reopen over a CRC-valid undecodable record succeeded")
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen with torn local log: %v", err)
			}
			defer rep2.Close()
			if got := rep2.AppliedLSN(); got != wal.LSN(tc.boundary) {
				t.Fatalf("applied %v after torn local log, want %v", got, tc.boundary)
			}
			if got := rep2.DB().Log().Size(); got != int64(tc.boundary) {
				t.Fatalf("local log %d bytes after reopen, want truncated to %d", got, tc.boundary)
			}

			pc2, rc2 := Pipe()
			done2 := make(chan error, 1)
			go func() { done2 <- rep2.Run(rc2) }()
			if from := fp.accept(pc2); from != wal.LSN(tc.boundary)+1 {
				t.Fatalf("resume at %v, want %v", from, wal.LSN(tc.boundary)+1)
			}
			fp.drainAcks()
			fp.sendRange(tc.boundary, len(fp.raw))
			deadline = time.Now().Add(5 * time.Second)
			for rep2.AppliedLSN() < wal.LSN(len(fp.raw)) {
				if time.Now().After(deadline) {
					t.Fatal("replica never finished after torn-log recovery")
				}
				time.Sleep(time.Millisecond)
			}
			pc2.Close()
			<-done2
		})
	}
}
