package repl

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/tpcc"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// testSyncPolicy lets CI run the replication crash/resume/reseed suite
// under a real fsync regime: ASOFDB_SYNC=fdatasync flips every engine —
// primary and standby — these tests open.
func testSyncPolicy(t *testing.T) wal.SyncPolicy {
	t.Helper()
	p, err := wal.ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	return p
}

func testSchema(name string) *row.Schema {
	return &row.Schema{
		Name: name,
		Columns: []row.Column{
			{Name: "id", Kind: row.KindInt64},
			{Name: "body", Kind: row.KindString},
			{Name: "qty", Kind: row.KindInt64},
		},
		KeyCols: 1,
	}
}

func testRow(id int, body string, qty int) row.Row {
	return row.Row{row.Int64(int64(id)), row.String(body), row.Int64(int64(qty))}
}

func mustExec(t *testing.T, db *engine.DB, fn func(tx *engine.Txn) error) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// cluster is a one-primary, one-replica test fixture over the in-process
// transport.
type cluster struct {
	t     *testing.T
	clock *vclock.Clock
	prim  *engine.DB
	ship  *Shipper
	rep   *Replica

	primConn, repConn Conn
	serveDone         chan error
	runDone           chan error
}

func newCluster(t *testing.T, primOpts engine.Options, repOpts ReplicaOptions) *cluster {
	t.Helper()
	c := &cluster{t: t, clock: vclock.New(time.Time{})}
	if primOpts.Clock == nil && primOpts.Now == nil {
		primOpts.Now = c.clock.Now
	}
	primOpts.SyncPolicy = testSyncPolicy(t)
	repOpts.Engine.SyncPolicy = testSyncPolicy(t)
	prim, err := engine.Open(t.TempDir(), primOpts)
	if err != nil {
		t.Fatal(err)
	}
	c.prim = prim
	if repOpts.Engine.Clock == nil && repOpts.Engine.Now == nil {
		repOpts.Engine.Now = c.clock.Now
	}
	rep, err := OpenReplica(t.TempDir(), repOpts)
	if err != nil {
		prim.Close()
		t.Fatal(err)
	}
	c.rep = rep
	c.ship = NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	c.connect()
	t.Cleanup(func() {
		c.stopStream()
		c.ship.Close()
		c.rep.Close() // no-op for promoted replicas: the test owns their engine
		c.prim.Close()
	})
	return c
}

// connect starts (or restarts) a streaming session.
func (c *cluster) connect() {
	c.primConn, c.repConn = Pipe()
	c.serveDone = make(chan error, 1)
	c.runDone = make(chan error, 1)
	go func() { c.serveDone <- c.ship.Serve(c.primConn) }()
	go func() { c.runDone <- c.rep.Run(c.repConn) }()
}

// stopStream closes the session and waits for both loops.
func (c *cluster) stopStream() {
	if c.primConn == nil {
		return
	}
	c.primConn.Close()
	c.repConn.Close()
	<-c.serveDone
	<-c.runDone
	c.primConn, c.repConn = nil, nil
}

// waitCaughtUp blocks until the replica has applied everything durable on
// the primary right now.
func (c *cluster) waitCaughtUp() {
	c.t.Helper()
	target := c.prim.Log().FlushedLSN()
	deadline := time.Now().Add(10 * time.Second)
	for c.rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			c.t.Fatalf("replica stuck at %v, want %v", c.rep.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// digest walks every user-visible table of an as-of snapshot in key order
// and hashes the raw leaf record bytes — byte-identical trees produce
// identical digests.
func digest(t *testing.T, s *asof.Snapshot) map[string]uint64 {
	t.Helper()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	return treeDigest(t, s)
}

// treeDigest is digest over any store that lists its tables: an as-of
// snapshot, or a restored backup.
func treeDigest(t *testing.T, s interface {
	btree.Store
	Tables() ([]catalog.Table, error)
}) map[string]uint64 {
	t.Helper()
	tables, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64, len(tables))
	for _, tbl := range tables {
		h := fnv.New64a()
		n := 0
		err := btree.Scan(s, tbl.Root, nil, nil, func(key, val []byte) bool {
			h.Write(key)
			h.Write([]byte{0})
			h.Write(val)
			h.Write([]byte{1})
			n++
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", tbl.Name, err)
		}
		out[fmt.Sprintf("%s/%d", tbl.Name, n)] = h.Sum64()
	}
	return out
}

// TestReplicaCatchesUpAndServesIdenticalAsOf is the subsystem's acceptance
// test: a replica started from an empty directory catches up from a live
// primary under concurrent TPC-C load, and an as-of query on the standby
// is byte-identical to the same query on the primary.
func TestReplicaCatchesUpAndServesIdenticalAsOf(t *testing.T) {
	c := newCluster(t,
		engine.Options{CheckpointEvery: 1 << 20, PageImageEvery: 100},
		ReplicaOptions{CheckpointEvery: 1 << 20},
	)

	cfg := tpcc.Config{Warehouses: 1, Items: 60}
	if err := tpcc.Load(c.prim, cfg); err != nil {
		t.Fatal(err)
	}
	d := tpcc.NewDriver(c.prim, cfg, c.clock)
	if _, err := d.Run(250, 4); err != nil {
		t.Fatal(err)
	}
	c.clock.Advance(2 * time.Minute)
	// More load after the as-of point, streamed live.
	if _, err := d.Run(250, 4); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()

	asOf := c.clock.Now().Add(-90 * time.Second)
	ps, err := asof.CreateSnapshot(c.prim, asOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rs, err := c.rep.SnapshotAsOf(asOf)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	if p, r := ps.SplitLSN(), rs.SplitLSN(); p != r {
		t.Fatalf("split divergence: primary %v, replica %v", p, r)
	}
	pd, rd := digest(t, ps), digest(t, rs)
	if len(pd) == 0 {
		t.Fatal("primary snapshot has no tables")
	}
	if fmt.Sprint(pd) != fmt.Sprint(rd) {
		t.Fatalf("as-of digests diverge:\nprimary: %v\nreplica: %v", pd, rd)
	}

	// A §6.3-style query runs on the standby directly.
	if _, err := tpcc.StockLevel(rs, 1, 1, 15); err != nil {
		t.Fatalf("stock-level on standby snapshot: %v", err)
	}

	// The §8 discovery step works on the standby too, off the reseeded
	// time→LSN index: same commits, same LSNs.
	from, to := c.clock.Now().Add(-3*time.Minute), c.clock.Now()
	pc, err := asof.FindCommits(c.prim, from, to)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := asof.FindCommits(c.rep.DB(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc) == 0 || len(pc) != len(rc) {
		t.Fatalf("FindCommits diverges: primary %d, standby %d", len(pc), len(rc))
	}
	for i := range pc {
		if pc[i].CommitLSN != rc[i].CommitLSN || pc[i].TxnID != rc[i].TxnID {
			t.Fatalf("commit %d diverges: %+v vs %+v", i, pc[i], rc[i])
		}
	}
}

// TestReplicaWritesRejected: the standby refuses write transactions until
// promoted.
func TestReplicaWritesRejected(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("w")) })
	c.waitCaughtUp()
	if _, err := c.rep.DB().Begin(); !errors.Is(err, engine.ErrStandby) {
		t.Fatalf("Begin on standby: %v, want ErrStandby", err)
	}
	if err := c.rep.DB().Checkpoint(); !errors.Is(err, engine.ErrStandby) {
		t.Fatalf("Checkpoint on standby: %v, want ErrStandby", err)
	}
}

// TestPromote verifies the failover path: in-flight transactions at the
// promotion point are rolled back, the engine passes the existing
// consistency checks, and the promoted database accepts new commits.
func TestPromote(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("acc")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("acc", testRow(i, fmt.Sprintf("r%d", i), i)); err != nil {
				return err
			}
		}
		return nil
	})

	// An in-flight transaction whose records reach the replica (a later
	// commit's flush ships them) but which never commits: promotion must
	// roll it back.
	hang, err := c.prim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := hang.Insert("acc", testRow(9000, "uncommitted", 1)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		return tx.Insert("acc", testRow(500, "committed-after", 1))
	})
	c.waitCaughtUp()
	c.stopStream()

	db, err := c.rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatalf("promoted consistency: %v", err)
	}
	mustExec(t, db, func(tx *engine.Txn) error {
		if _, ok, err := tx.Get("acc", row.Row{row.Int64(9000)}); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("uncommitted row survived promotion")
		}
		if _, ok, err := tx.Get("acc", row.Row{row.Int64(500)}); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("committed row lost in promotion")
		}
		return tx.Insert("acc", testRow(9001, "post-promote", 1))
	})
	mustExec(t, db, func(tx *engine.Txn) error {
		if _, ok, err := tx.Get("acc", row.Row{row.Int64(9001)}); err != nil || !ok {
			return fmt.Errorf("post-promote row: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	hang.Rollback()

	// The fork is durable: the promoted directory can never be reopened
	// as a standby (its log has diverged from the primary's), only as a
	// regular database.
	if _, err := OpenReplica(c.rep.dir, ReplicaOptions{Engine: engine.Options{Now: c.clock.Now}}); err == nil {
		t.Fatal("promoted directory reopened as a standby")
	}
	db2, err := engine.Open(c.rep.dir, engine.Options{Now: c.clock.Now})
	if err != nil {
		t.Fatalf("promoted directory should open as a regular database: %v", err)
	}
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

// TestReplicaRestartResumes: a replica closed mid-history reopens from its
// checkpointed apply state and resumes the stream at the right boundary.
func TestReplicaRestartResumes(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{CheckpointEvery: 64 << 10})
	dir := c.rep.dir
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("r")) })
	for b := 0; b < 5; b++ {
		mustExec(t, c.prim, func(tx *engine.Txn) error {
			for i := 0; i < 100; i++ {
				if err := tx.Insert("r", testRow(b*100+i, "x", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	c.waitCaughtUp()
	c.stopStream()
	if err := c.rep.Close(); err != nil {
		t.Fatal(err)
	}

	// More history while the replica is down.
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 500; i < 600; i++ {
			if err := tx.Insert("r", testRow(i, "late", i)); err != nil {
				return err
			}
		}
		return nil
	})

	rep2, err := OpenReplica(dir, ReplicaOptions{Engine: engine.Options{Now: c.clock.Now}})
	if err != nil {
		t.Fatal(err)
	}
	c.rep = rep2
	c.connect()
	c.waitCaughtUp()
	c.stopStream()

	db, err := rep2.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *engine.Txn) error {
		n, err := tx.CountRows("r", nil, nil)
		if err != nil {
			return err
		}
		if n != 600 {
			return fmt.Errorf("promoted replica has %d rows, want 600", n)
		}
		return nil
	})
	db.Close()
}

// TestReplicationLagDeterministic pins lag observation to the injected
// clock: no sleeps, exact numbers.
func TestReplicationLagDeterministic(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("lag")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("lag", testRow(1, "a", 1)) })
	c.waitCaughtUp()

	st := c.rep.Status()
	if st.LagBytes != 0 {
		t.Fatalf("caught-up replica reports %d lag bytes", st.LagBytes)
	}
	commitAt := st.LastCommitAt
	if commitAt.IsZero() {
		t.Fatal("no last-applied commit time")
	}
	c.clock.Advance(5 * time.Second)
	if got := c.rep.Status().LagTime; got != 5*time.Second {
		t.Fatalf("lag time %v, want exactly 5s (virtual clock)", got)
	}
}

// TestShipperStatus exercises the primary-side per-replica report.
func TestShipperStatus(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("s")) })
	c.waitCaughtUp()
	// Acks are asynchronous: wait for the applied position to arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := c.ship.Status()
		if len(sts) != 1 {
			t.Fatalf("want 1 subscriber, got %d", len(sts))
		}
		st := sts[0]
		if st.Applied == st.PrimaryDurable && st.Shipped == st.PrimaryDurable {
			if st.LagBytes != 0 {
				t.Fatalf("lag bytes %d at parity", st.LagBytes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ack never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShipperStatusIdleCaughtUp pins the idle-stream lag semantics: a
// caught-up subscriber on a primary that stopped committing reports
// "idle, caught up" (Idle=true, LagSeconds=0) — heartbeat clock beacons
// keep the acked positions fresh, so the growing distance from the last
// applied commit is idle time, not lag. Real lag (deferred apply under
// commit traffic) still reports.
func TestShipperStatusIdleCaughtUp(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("idle")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("idle", testRow(1, "a", 1)) })
	c.waitCaughtUp()
	waitStatus := func(want func(SubscriberStatus) bool) SubscriberStatus {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if sts := c.ship.Status(); len(sts) == 1 && want(sts[0]) {
				return sts[0]
			}
			if time.Now().After(deadline) {
				t.Fatalf("status never converged: %+v", c.ship.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitStatus(func(st SubscriberStatus) bool { return st.Applied == st.PrimaryDurable })

	// A long idle stretch: the last applied commit recedes into the past,
	// but the replica is not one nanosecond behind.
	c.clock.Advance(30 * time.Second)
	st := waitStatus(func(st SubscriberStatus) bool { return st.Applied == st.PrimaryDurable })
	if !st.Idle {
		t.Fatalf("caught-up idle stream not reported Idle: %+v", st)
	}
	if st.LagSeconds != 0 {
		t.Fatalf("idle stream reports %.1fs of phantom lag", st.LagSeconds)
	}
	if st.LastCommitAt.IsZero() {
		t.Fatal("idle status should still carry the last applied commit time")
	}

	// Genuine lag (deferred apply + fresh commits) still reports.
	c.rep.PauseApply()
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("idle", testRow(2, "b", 2)) })
	c.clock.Advance(5 * time.Second)
	st = waitStatus(func(st SubscriberStatus) bool { return st.Applied < st.PrimaryDurable })
	if st.Idle {
		t.Fatalf("lagging subscriber reported Idle: %+v", st)
	}
	if st.LagSeconds <= 0 {
		t.Fatalf("lagging subscriber reports no wall-clock lag: %+v", st)
	}
	c.rep.ResumeApply()
}

// TestTCPTransport streams a real workload over a loopback TCP connection.
func TestTCPTransport(t *testing.T) {
	clock := vclock.New(time.Time{})
	prim, err := engine.Open(t.TempDir(), engine.Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("tcp")) })
	mustExec(t, prim, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("tcp", testRow(i, "net", i)); err != nil {
				return err
			}
		}
		return nil
	})

	ship := NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship.Close()
	lis, err := ListenAndServe("127.0.0.1:0", ship)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer lis.Close()

	rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{Now: clock.Now}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	conn, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- rep.Run(conn) }()

	target := prim.Log().FlushedLSN()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %v over TCP, want %v", rep.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	if err := <-runDone; err != nil && !errors.Is(err, ErrClosed) {
		// A closed TCP conn surfaces as a read error; either is a clean end
		// for this test.
		t.Logf("run ended: %v", err)
	}

	snap, err := rep.SnapshotAsOf(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n, err := snap.CountRows("tcp", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("standby sees %d rows over TCP, want 300", n)
	}
}

// TestSubscribePastTruncationRejected: a replica whose resume point
// predates the primary's retention truncation is told to reseed.
func TestSubscribePastTruncationRejected(t *testing.T) {
	clock := vclock.New(time.Time{})
	// Small segments and no archive: retention physically drops the early
	// history, so a from-scratch subscription cannot be served.
	prim, err := engine.Open(t.TempDir(), engine.Options{
		Now: clock.Now, Retention: time.Minute, LogSegmentBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("tr")) })
	mustExec(t, prim, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("tr", testRow(i, "x", i)); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(10 * time.Minute)
	mustExec(t, prim, func(tx *engine.Txn) error { return tx.Insert("tr", testRow(1000, "x", 1)) })
	if err := prim.Checkpoint(); err != nil { // prunes history beyond retention
		t.Fatal(err)
	}
	clock.Advance(10 * time.Minute)
	if err := prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor := prim.Log().SegmentFloor(); floor <= 1 {
		t.Fatalf("retention did not drop segments (floor %v): the fixed layout no longer exercises the rejection", floor)
	}

	ship := NewShipper(prim, ShipperOptions{})
	defer ship.Close()
	pc, rc := Pipe()
	go func() { _ = ship.Serve(pc) }()
	rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{Now: clock.Now}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Run(rc); err == nil {
		t.Fatal("subscription below the truncation point should fail")
	}
}

// TestDeferredApply: PauseApply keeps ingesting durably while pages hold
// still; the standby serves its applied horizon meanwhile; ResumeApply
// drains the backlog.
func TestDeferredApply(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("d")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("d", testRow(i, "pre", i)); err != nil {
				return err
			}
		}
		return nil
	})
	c.waitCaughtUp()
	horizon := c.clock.Now()
	c.clock.Advance(time.Second)
	c.rep.PauseApply()

	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 100; i < 300; i++ {
			if err := tx.Insert("d", testRow(i, "deferred", i)); err != nil {
				return err
			}
		}
		return nil
	})
	// The deferred bytes become durable on the standby without applying.
	target := c.prim.Log().FlushedLSN()
	deadline := time.Now().Add(5 * time.Second)
	for c.rep.DB().Log().FlushedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled at %v during deferred apply, want %v",
				c.rep.DB().Log().FlushedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	if applied := c.rep.AppliedLSN(); applied >= target {
		t.Fatalf("applied %v advanced past the pause point %v", applied, target)
	}
	if lag := c.rep.Status().LagBytes; lag == 0 {
		t.Fatal("deferred backlog should show as lag")
	}

	// The standby still serves its applied horizon.
	snap, err := c.rep.SnapshotAsOf(horizon)
	if err != nil {
		t.Fatal(err)
	}
	n, err := snap.CountRows("d", nil, nil)
	snap.Close()
	if err != nil || n != 100 {
		t.Fatalf("horizon query: n=%d err=%v, want 100", n, err)
	}

	// Resume: the backlog drains (a heartbeat triggers it even when no
	// new batch arrives).
	c.rep.ResumeApply()
	c.waitCaughtUp()
	c.stopStream()
	db, err := c.rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *engine.Txn) error {
		n, err := tx.CountRows("d", nil, nil)
		if err != nil {
			return err
		}
		if n != 300 {
			return fmt.Errorf("after drain: %d rows, want 300", n)
		}
		return nil
	})
	db.Close()
}

// TestPromoteDrainsDeferredBacklog: a standby whose apply is paused holds
// acknowledged commits in its local log only. Promoting it must repeat
// history through the end of that log before undo — the session ends with
// apply still paused, so neither a batch nor a heartbeat drained it first.
// The engine refuses a promotion that skips the drain.
func TestPromoteDrainsDeferredBacklog(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("p")) })
	c.waitCaughtUp()
	c.rep.PauseApply()

	// An in-flight transaction whose records a later commit makes durable:
	// promotion rolls it back only if analysis saw it.
	open, err := c.prim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer open.Rollback()
	for i := 1000; i < 1010; i++ {
		if err := open.Insert("p", testRow(i, "inflight", i)); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 5; b++ {
		mustExec(t, c.prim, func(tx *engine.Txn) error {
			for i := b * 40; i < (b+1)*40; i++ {
				if err := tx.Insert("p", testRow(i, "acked", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	target := c.prim.Log().FlushedLSN()
	deadline := time.Now().Add(10 * time.Second)
	for c.rep.DB().Log().FlushedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled at %v, want %v", c.rep.DB().Log().FlushedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	c.stopStream()
	if applied := c.rep.AppliedLSN(); applied >= target {
		t.Fatalf("applied %v reached %v with apply paused", applied, target)
	}
	if err := c.rep.DB().Promote(nil); !errors.Is(err, engine.ErrRedoIncomplete) {
		t.Fatalf("engine promote short of the log end: %v, want ErrRedoIncomplete", err)
	}
	if !c.rep.DB().Standby() {
		t.Fatal("a refused promotion left the standby flag cleared")
	}

	db, err := c.rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, func(tx *engine.Txn) error {
		n, err := tx.CountRows("p", nil, nil)
		if err != nil {
			return err
		}
		if n != 200 {
			return fmt.Errorf("promoted standby holds %d rows, want the 200 acknowledged", n)
		}
		return nil
	})
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
