package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
	"repro/internal/tpcc"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// chain is a primary → R1 → R2 cascade over in-process transports: R1 is a
// warm standby of the primary that re-ships its local log (ShipLocal), R2
// a warm standby of R1. All engines share one virtual clock and the
// ASOFDB_SYNC-selected durability policy, so the whole suite reruns under
// real fdatasync log forces in CI.
type chain struct {
	t     *testing.T
	clock *vclock.Clock

	prim    *engine.DB
	ship    *Shipper // primary's shipper
	r1      *Replica // mid-tier
	cascade *Shipper // R1's local shipper
	r2      *Replica // leaf

	dir1, dir2 string
	hop1, hop2 *hop
}

// hop is one live shipping session (Serve + Run goroutine pair).
type hop struct {
	up, down  Conn
	serveDone chan error
	runDone   chan error
}

func (h *hop) stop() (serveErr, runErr error) {
	h.up.Close()
	h.down.Close()
	return <-h.serveDone, <-h.runDone
}

func newChain(t *testing.T, primOpts engine.Options) *chain {
	t.Helper()
	c := &chain{t: t, clock: vclock.New(time.Time{}), dir1: t.TempDir(), dir2: t.TempDir()}
	if primOpts.Clock == nil {
		primOpts.Clock = c.clock
	}
	primOpts.SyncPolicy = testSyncPolicy(t)
	prim, err := engine.Open(t.TempDir(), primOpts)
	if err != nil {
		t.Fatal(err)
	}
	c.prim = prim
	c.ship = NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	c.openReplicas()
	c.connectHop1()
	c.connectHop2()
	t.Cleanup(c.teardown)
	return c
}

func (c *chain) replicaOptions() ReplicaOptions {
	return ReplicaOptions{
		Engine: engine.Options{Clock: c.clock, SyncPolicy: testSyncPolicy(c.t)},
	}
}

// openReplicas (re)opens R1 (with its cascade shipper) and R2 from their
// directories.
func (c *chain) openReplicas() {
	c.t.Helper()
	var err error
	if c.r1 == nil {
		if c.r1, err = OpenReplica(c.dir1, c.replicaOptions()); err != nil {
			c.t.Fatal(err)
		}
		c.cascade = c.r1.ShipLocal(ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	}
	if c.r2 == nil {
		if c.r2, err = OpenReplica(c.dir2, c.replicaOptions()); err != nil {
			c.t.Fatal(err)
		}
	}
}

func (c *chain) connectHop1() {
	up, down := Pipe()
	h := &hop{up: up, down: down, serveDone: make(chan error, 1), runDone: make(chan error, 1)}
	go func() { h.serveDone <- c.ship.Serve(up) }()
	go func() { h.runDone <- c.r1.Run(down) }()
	c.hop1 = h
}

func (c *chain) connectHop2() {
	up, down := Pipe()
	h := &hop{up: up, down: down, serveDone: make(chan error, 1), runDone: make(chan error, 1)}
	go func() { h.serveDone <- c.cascade.Serve(up) }()
	go func() { h.runDone <- c.r2.Run(down) }()
	c.hop2 = h
}

func (c *chain) teardown() {
	if c.hop2 != nil {
		c.hop2.stop()
		c.hop2 = nil
	}
	if c.hop1 != nil {
		c.hop1.stop()
		c.hop1 = nil
	}
	c.ship.Close()
	if c.r2 != nil {
		c.r2.Close()
	}
	if c.r1 != nil {
		c.r1.Close()
	}
	c.prim.Close()
}

// waitChain blocks until both tiers have applied everything durable on the
// primary right now.
func (c *chain) waitChain() {
	c.t.Helper()
	target := c.prim.Log().FlushedLSN()
	deadline := time.Now().Add(20 * time.Second)
	for c.r1.AppliedLSN() < target || c.r2.AppliedLSN() < target {
		if time.Now().After(deadline) {
			c.t.Fatalf("chain stuck: primary %v, R1 %v, R2 %v",
				target, c.r1.AppliedLSN(), c.r2.AppliedLSN())
		}
		time.Sleep(time.Millisecond)
	}
}

// pastHorizon returns the current virtual instant and steps the clock past
// it. Digesting at a strictly-past horizon keeps the comparison
// deterministic: the §5.1 pre-mount checkpoint the primary's own snapshot
// may take is stamped *after* the horizon, so it can never become one
// tier's split-resolution anchor while another tier resolved before
// ingesting it.
func (c *chain) pastHorizon() time.Time {
	h := c.clock.Now()
	c.clock.Advance(time.Second)
	return h
}

// digestsAt mounts as-of snapshots at `at` on every tier and fails unless
// they are byte-identical (same split LSN, same table digests).
func (c *chain) digestsAt(at time.Time) {
	c.t.Helper()
	ps, err := asof.CreateSnapshot(c.prim, at, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer ps.Close()
	s1, err := c.r1.SnapshotAsOf(at)
	if err != nil {
		c.t.Fatal(err)
	}
	defer s1.Close()
	s2, err := c.r2.SnapshotAsOf(at)
	if err != nil {
		c.t.Fatal(err)
	}
	defer s2.Close()
	if p, a, b := ps.SplitLSN(), s1.SplitLSN(), s2.SplitLSN(); p != a || p != b {
		c.t.Fatalf("split divergence: primary %v, R1 %v, R2 %v", p, a, b)
	}
	pd, d1, d2 := digest(c.t, ps), digest(c.t, s1), digest(c.t, s2)
	if len(pd) == 0 {
		c.t.Fatal("primary snapshot has no tables")
	}
	if fmt.Sprint(pd) != fmt.Sprint(d1) || fmt.Sprint(pd) != fmt.Sprint(d2) {
		c.t.Fatalf("as-of digests diverge:\nprimary: %v\nR1: %v\nR2: %v", pd, d1, d2)
	}
}

// TestCascadeServesIdenticalAsOf is the cascade's acceptance test: under
// live TPC-C load the leaf of a primary → R1 → R2 chain converges to
// byte-identical as-of state, and the status tree propagates hop by hop to
// the root.
func TestCascadeServesIdenticalAsOf(t *testing.T) {
	c := newChain(t, engine.Options{CheckpointEvery: 1 << 20, PageImageEvery: 100})
	cfg := tpcc.Config{Warehouses: 1, Items: 40}
	if err := tpcc.Load(c.prim, cfg); err != nil {
		t.Fatal(err)
	}
	d := tpcc.NewDriver(c.prim, cfg, c.clock)
	if _, err := d.Run(150, 4); err != nil {
		t.Fatal(err)
	}
	c.clock.Advance(2 * time.Minute)
	if _, err := d.Run(150, 4); err != nil {
		t.Fatal(err)
	}
	c.waitChain()
	c.digestsAt(c.clock.Now().Add(-90 * time.Second))

	// The root's status shows the whole tree: R1's ack piggybacks carry its
	// own subscriber (R2), per-hop lag and retained LSN included.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := c.ship.Status()
		if len(sts) == 1 && len(sts[0].Downstream) == 1 {
			ds := sts[0].Downstream[0]
			if ds.Retained != c.r1.DB().Log().SegmentFloor() {
				t.Fatalf("downstream retained %v, want R1's floor %v", ds.Retained, c.r1.DB().Log().SegmentFloor())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status tree never propagated: %+v", sts)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCascadeMidTierRestart kills and restarts the mid-tier standby while
// the primary keeps committing: both hops resubscribe and the chain
// converges to byte-identical state.
func TestCascadeMidTierRestart(t *testing.T) {
	c := newChain(t, engine.Options{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("casc")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("casc", testRow(i, "pre", i)); err != nil {
				return err
			}
		}
		return nil
	})
	c.waitChain()

	// Kill the mid-tier mid-stream: both of its sessions die with it.
	c.hop2.stop()
	c.hop1.stop()
	c.hop1, c.hop2 = nil, nil
	if err := c.r1.Close(); err != nil {
		t.Fatal(err)
	}
	c.r1 = nil

	// History the chain misses while the mid-tier is down.
	c.clock.Advance(time.Minute)
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 300; i < 500; i++ {
			if err := tx.Insert("casc", testRow(i, "while-down", i)); err != nil {
				return err
			}
		}
		return nil
	})

	c.openReplicas() // reopens R1 + a fresh cascade shipper
	c.connectHop2()  // downstream first: it must tolerate a mid-tier still behind it
	c.connectHop1()
	c.waitChain()
	c.digestsAt(c.pastHorizon())
}

// TestCascadeMidTierTornLocalLog crashes the mid-tier hard: its local log
// loses an unsynced tail that the downstream replica has already applied,
// plus a torn partial record. On restart the mid-tier truncates to its
// valid boundary and re-ingests the lost bytes from the primary; the
// downstream's resume point is *past* the mid-tier's log end, which on a
// byte-identical cascade hop must park the subscription until the log
// grows back — not be declared divergence — after which the chain
// converges byte-identically.
func TestCascadeMidTierTornLocalLog(t *testing.T) {
	c := newChain(t, engine.Options{})
	crashMidTierLosingTail(t, c, "torncasc")

	// Downstream reconnects first: its subscription is past the mid-tier's
	// log end and must park, not fail.
	c.connectHop2()
	select {
	case err := <-c.hop2.runDone:
		t.Fatalf("downstream session ended instead of parking: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.connectHop1()
	c.waitChain()
	c.digestsAt(c.pastHorizon())
}

// crashMidTierLosingTail loads `table`, converges the chain, then
// power-cuts the mid-tier and chops an already-shipped suffix plus a torn
// partial record off its local log — the on-disk shape of a lost page
// cache. On return the chain is disconnected, R1 is reopened at its valid
// boundary, and R2 is strictly ahead of it.
func crashMidTierLosingTail(t *testing.T, c *chain, table string) {
	t.Helper()
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema(table)) })
	for b := 0; b < 4; b++ {
		mustExec(t, c.prim, func(tx *engine.Txn) error {
			for i := 0; i < 100; i++ {
				if err := tx.Insert(table, testRow(b*100+i, "x", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	c.waitChain()
	r2End := c.r2.DB().Log().Size()

	c.hop2.stop()
	c.hop1.stop()
	c.hop1, c.hop2 = nil, nil

	c.r1.db.Crash()
	segs, err := wal.ListSegments(filepath.Join(c.dir1, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	cut := tail.Bytes - 512
	if cut <= 0 {
		t.Fatalf("tail segment too small to tear (%d bytes)", tail.Bytes)
	}
	if err := os.Truncate(tail.Path, segHeaderBytes(t)+cut); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(tail.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00, 0x00}); err != nil { // torn frame header
		t.Fatal(err)
	}
	f.Close()
	c.r1 = nil

	c.openReplicas()
	if got := c.r1.DB().Log().Size(); got >= r2End {
		t.Fatalf("mid-tier log %d bytes after tear, want below R2's %d (the scenario needs R2 ahead)", got, r2End)
	}
	if c.r2.AppliedLSN() <= c.r1.AppliedLSN() {
		t.Fatalf("R2 (%v) should be ahead of the torn mid-tier (%v)", c.r2.AppliedLSN(), c.r1.AppliedLSN())
	}
}

// TestCascadePromoteWhileDownstreamAhead pins the other fork geometry: the
// mid-tier is promoted while a downstream replica holds MORE pre-fork
// bytes than it (crash lost the mid-tier's buffered tail). The fence must
// tell that replica it is ahead of the fork — re-pointing it at the
// promoted node would splice timelines — and its old-timeline state must
// remain byte-identical to the original primary's.
func TestCascadePromoteWhileDownstreamAhead(t *testing.T) {
	c := newChain(t, engine.Options{})
	crashMidTierLosingTail(t, c, "aheadfork")
	horizon := c.clock.Now()
	c.clock.Advance(time.Second)

	// R2 parks against the short mid-tier, then the mid-tier is promoted
	// without ever regrowing past R2.
	c.connectHop2()
	select {
	case err := <-c.hop2.runDone:
		t.Fatalf("downstream session ended instead of parking: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fork := c.r1.DB().Log().NextLSN() - 1
	if wal.LSN(c.r2.DB().Log().Size()) <= fork {
		t.Fatalf("scenario lost: R2 (%v) is not ahead of the fork (%v)", c.r2.DB().Log().Size(), fork)
	}
	db1, err := c.r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()

	err = <-c.hop2.runDone
	if !errors.Is(err, ErrUpstreamPromoted) {
		t.Fatalf("downstream run ended with %v, want ErrUpstreamPromoted", err)
	}
	if !strings.Contains(err.Error(), "AHEAD") {
		t.Fatalf("an ahead-of-fork replica must be warned off the promoted node, got: %v", err)
	}
	<-c.hop2.serveDone
	c.hop2.up.Close()
	c.hop2.down.Close()
	c.hop2 = nil

	// The orphan's bytes are pure old-timeline: byte-identical to the
	// original primary, which it may still follow (or it must be reseeded).
	ps, err := asof.CreateSnapshot(c.prim, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	s2, err := c.r2.SnapshotAsOf(horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if a, b := ps.SplitLSN(), s2.SplitLSN(); a != b {
		t.Fatalf("split divergence: primary %v, orphan %v", a, b)
	}
	pd, d2 := digest(t, ps), digest(t, s2)
	if fmt.Sprint(pd) != fmt.Sprint(d2) {
		t.Fatalf("orphan diverged from the old timeline:\nprimary: %v\norphan: %v", pd, d2)
	}
}

// segHeaderBytes returns the segment header size via a throwaway store (the
// constant is unexported; the first segment of an empty store is exactly
// one header).
func segHeaderBytes(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	m, err := wal.OpenStore(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("empty store has no segment: %v", err)
	}
	fi, err := os.Stat(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size() - segs[0].Bytes
}

// TestCascadeRetentionOutrunsMidTier lets primary retention truncate past
// an offline mid-tier's resume point: resubscription is served from the
// retention archive (archive + live segments as one byte stream), the
// mid-tier catches up, and the leaf — which never talked to the primary —
// converges byte-identically through it. A fresh third-tier replica can
// still seed from the mid-tier's complete local log.
func TestCascadeRetentionOutrunsMidTier(t *testing.T) {
	arch := t.TempDir()
	c := newChain(t, engine.Options{
		Retention:       time.Minute,
		LogSegmentBytes: 4 << 10,
		LogArchiveDir:   arch,
	})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("ret")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("ret", testRow(i, "early", i)); err != nil {
				return err
			}
		}
		return nil
	})
	c.waitChain()

	// Mid-tier goes offline; the primary's history marches past retention.
	c.hop2.stop()
	c.hop1.stop()
	c.hop1, c.hop2 = nil, nil
	resume := c.r1.DB().Log().NextLSN()
	for b := 0; b < 4; b++ {
		c.clock.Advance(5 * time.Minute)
		mustExec(t, c.prim, func(tx *engine.Txn) error {
			for i := 0; i < 150; i++ {
				if err := tx.Insert("ret", testRow(1000+b*150+i, "late", i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err := c.prim.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if floor := c.prim.Log().SegmentFloor(); floor <= resume {
		t.Fatalf("retention floor %v did not outrun the mid-tier's resume point %v: the fixed layout no longer exercises the archive", floor, resume)
	}

	c.connectHop2()
	c.connectHop1() // below the live floor: served from the archive
	c.waitChain()
	c.digestsAt(c.pastHorizon())

	// A fresh leaf chained off the mid-tier seeds from LSN 1: the
	// mid-tier's local log is complete even though the primary's live log
	// no longer is.
	r3, err := OpenReplica(t.TempDir(), c.replicaOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	up, down := Pipe()
	serveDone, runDone := make(chan error, 1), make(chan error, 1)
	go func() { serveDone <- c.cascade.Serve(up) }()
	go func() { runDone <- r3.Run(down) }()
	target := c.prim.Log().FlushedLSN()
	deadline := time.Now().Add(20 * time.Second)
	for r3.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("fresh third tier stuck at %v, want %v", r3.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	up.Close()
	down.Close()
	<-serveDone
	<-runDone
}

// TestCascadePromoteFencesAndRepoints pins mid-tier promotion semantics:
// the downstream session is fenced with the promotion point before the log
// forks (ErrUpstreamPromoted, never a post-fork byte), and the orphan can
// then be re-pointed at the promoted node — resubscribing exactly at its
// local log end — and follow the new timeline.
func TestCascadePromoteFencesAndRepoints(t *testing.T) {
	c := newChain(t, engine.Options{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("pr")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("pr", testRow(i, "shared", i)); err != nil {
				return err
			}
		}
		return nil
	})
	c.waitChain()
	horizon := c.clock.Now()
	c.clock.Advance(time.Second)

	// End the upstream session (promotion requires it), then promote with
	// the downstream session still live.
	c.hop1.stop()
	c.hop1 = nil
	fork := c.prim.Log().FlushedLSN() // = R1's log end: fully caught up
	db1, err := c.r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()

	if err := <-c.hop2.runDone; !errors.Is(err, ErrUpstreamPromoted) {
		t.Fatalf("downstream run ended with %v, want ErrUpstreamPromoted", err)
	}
	<-c.hop2.serveDone
	c.hop2.up.Close()
	c.hop2.down.Close()
	c.hop2 = nil
	if got := wal.LSN(c.r2.DB().Log().Size()); got > fork {
		t.Fatalf("downstream holds %v bytes, past the fork at %v", got, fork)
	}

	// The promoted node diverges from the old primary.
	mustExec(t, db1, func(tx *engine.Txn) error {
		for i := 1000; i < 1100; i++ {
			if err := tx.Insert("pr", testRow(i, "new-timeline", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// Re-point the orphan at the promoted node: resubscription resumes at
	// its local log end (all pre-fork bytes are shared), then streams the
	// new timeline.
	newShip := NewShipper(db1, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer newShip.Close()
	up, down := Pipe()
	serveDone, runDone := make(chan error, 1), make(chan error, 1)
	go func() { serveDone <- newShip.Serve(up) }()
	go func() { runDone <- c.r2.Run(down) }()
	target := db1.Log().FlushedLSN()
	deadline := time.Now().Add(20 * time.Second)
	for c.r2.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("re-pointed replica stuck at %v, want %v", c.r2.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	up.Close()
	down.Close()
	<-serveDone
	<-runDone

	// Byte-identical across the fork: both the shared history (horizon) and
	// the new timeline resolve identically on promoted node and re-pointed
	// leaf. Both instants are strictly past before digesting (see
	// pastHorizon) so no digest-time checkpoint can skew one side's split
	// resolution.
	newTimeline := c.clock.Now()
	c.clock.Advance(time.Second)
	for _, at := range []time.Time{horizon, newTimeline} {
		s1, err := asof.CreateSnapshot(db1, at, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := c.r2.SnapshotAsOf(at)
		if err != nil {
			s1.Close()
			t.Fatal(err)
		}
		if a, b := s1.SplitLSN(), s2.SplitLSN(); a != b {
			t.Fatalf("split divergence at %v: %v vs %v", at, a, b)
		}
		d1, d2 := digest(t, s1), digest(t, s2)
		if fmt.Sprint(d1) != fmt.Sprint(d2) {
			t.Fatalf("digest divergence at %v:\npromoted: %v\nleaf: %v", at, d1, d2)
		}
		s1.Close()
		s2.Close()
	}
}

// TestCascadePromoteRaceHammer promotes the mid-tier while the downstream
// replica is applying an in-flight stream and concurrently mounting as-of
// snapshots (go test -race pins the memory model; the assertions pin the
// fence: the orphan never holds a post-fork byte and still serves
// byte-identical history).
func TestCascadePromoteRaceHammer(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			c := newChain(t, engine.Options{})
			mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("hammer")) })
			mustExec(t, c.prim, func(tx *engine.Txn) error {
				for i := 0; i < 100; i++ {
					if err := tx.Insert("hammer", testRow(i, "base", i)); err != nil {
						return err
					}
				}
				return nil
			})
			c.waitChain()
			horizon := c.clock.Now()
			c.clock.Advance(time.Second)

			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Primary load keeps batches in flight down the chain.
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 1000
				for {
					select {
					case <-stop:
						return
					default:
					}
					mustExec(t, c.prim, func(tx *engine.Txn) error {
						for j := 0; j < 20; j++ {
							if err := tx.Insert("hammer", testRow(i+j, "flight", j)); err != nil {
								return err
							}
						}
						return nil
					})
					i += 20
				}
			}()

			// Downstream snapshot mounts race the promotion fence.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s, err := c.r2.SnapshotAsOf(horizon)
					if err != nil {
						t.Errorf("snapshot during promote race: %v", err)
						return
					}
					if _, err := s.CountRows("hammer", nil, nil); err != nil {
						t.Errorf("count during promote race: %v", err)
					}
					s.Close()
				}
			}()

			time.Sleep(10 * time.Millisecond) // let the stream and mounts get going
			c.hop1.up.Close()
			c.hop1.down.Close()
			<-c.hop1.serveDone
			<-c.hop1.runDone
			c.hop1 = nil
			db1, err := c.r1.Promote() // fences hop2 concurrently with apply + mounts
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			defer db1.Close()
			fork := db1.Log().FlushedLSN() // promotion appended past R1's ingested end

			err = <-c.hop2.runDone
			if err != nil && !errors.Is(err, ErrUpstreamPromoted) && !errors.Is(err, ErrClosed) {
				t.Fatalf("downstream run: %v", err)
			}
			<-c.hop2.serveDone
			c.hop2.up.Close()
			c.hop2.down.Close()
			c.hop2 = nil
			if got := wal.LSN(c.r2.DB().Log().Size()); got > fork {
				t.Fatalf("orphan holds %v bytes, past the fork at %v", got, fork)
			}

			// The orphan's shared history is intact and byte-identical.
			s1, err := asof.CreateSnapshot(db1, horizon, nil)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := c.r2.SnapshotAsOf(horizon)
			if err != nil {
				s1.Close()
				t.Fatal(err)
			}
			d1, d2 := digest(t, s1), digest(t, s2)
			if fmt.Sprint(d1) != fmt.Sprint(d2) {
				t.Fatalf("orphan digest diverges:\npromoted: %v\norphan: %v", d1, d2)
			}
			s1.Close()
			s2.Close()
		})
	}
}
