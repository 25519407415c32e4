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
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/wal"
)

// orchFixture is a primary plus named standby directories, all on one
// virtual clock, with helpers to arrange exact log geometries before the
// orchestrator is let loose on them.
type orchFixture struct {
	t    *testing.T
	mock *clock.Mock
	prim *engine.DB
	ship *Shipper
	dirs map[string]string
	reps map[string]*Replica
}

func newOrchFixture(t *testing.T, names ...string) *orchFixture {
	t.Helper()
	f := &orchFixture{
		t:    t,
		mock: clock.NewMock(time.Unix(1000, 0)),
		dirs: make(map[string]string),
		reps: make(map[string]*Replica),
	}
	prim, err := engine.Open(t.TempDir(), engine.Options{Clock: f.mock, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	f.prim = prim
	f.ship = NewShipper(prim, ShipperOptions{HeartbeatEvery: 10 * time.Millisecond})
	for _, name := range names {
		dir := t.TempDir()
		rep, err := OpenReplica(dir, f.replicaOptions())
		if err != nil {
			t.Fatal(err)
		}
		f.dirs[name], f.reps[name] = dir, rep
	}
	t.Cleanup(func() {
		// Best-effort: promoted replicas no-op their Close (the test owns
		// the engine), crashed primaries are abandoned like every crash
		// test in this package.
		f.ship.Close()
		for _, rep := range f.reps {
			rep.Close()
		}
		if !f.prim.Closed() {
			f.prim.Close()
		}
	})
	return f
}

func (f *orchFixture) replicaOptions() ReplicaOptions {
	return ReplicaOptions{Engine: engine.Options{Clock: f.mock, SyncPolicy: testSyncPolicy(f.t)}}
}

// catchUp streams the named standby from the primary until it holds
// everything currently durable, then ends the session.
func (f *orchFixture) catchUp(name string) {
	f.t.Helper()
	h := connectPair(f.t, f.ship, f.reps[name])
	waitApplied(f.t, f.reps[name], f.prim.Log().FlushedLSN())
	h.stop()
}

// commitRows commits one batch of rows [lo, hi) into table.
func (f *orchFixture) commitRows(db *engine.DB, table string, lo, hi int) {
	f.t.Helper()
	mustExec(f.t, db, func(tx *engine.Txn) error {
		for i := lo; i < hi; i++ {
			if err := tx.Insert(table, testRow(i, "orch", i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// downPrimary kills the primary the way the orchestrator's default probe
// detects: engine crash. The shipper is closed too — a dead process ships
// nothing — so managed sessions fail instead of streaming from a ghost.
func (f *orchFixture) downPrimary() {
	f.prim.Crash()
	f.ship.Close()
}

func eventKinds(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		if e.Node != "" {
			out[i] = e.Kind + ":" + e.Node
		} else {
			out[i] = e.Kind
		}
	}
	return out
}

// TestOrchestratorFailoverPromotesBest pins the core failover schedule on
// virtual time: the primary dies, the orchestrator waits out FailAfter,
// promotes the standby with the highest durable log end (losing no
// acknowledged commit the fleet still holds), re-points the survivor, and
// fails the read router over — every event at an exact virtual instant.
func TestOrchestratorFailoverPromotesBest(t *testing.T) {
	f := newOrchFixture(t, "a", "b")
	mustExec(t, f.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("fo")) })
	f.commitRows(f.prim, "fo", 0, 100)
	f.catchUp("b") // b holds the first batch only
	f.commitRows(f.prim, "fo", 100, 200)
	f.catchUp("a") // a holds everything: the best-positioned candidate
	aEnd, bEnd := f.reps["a"].DB().Log().FlushedLSN(), f.reps["b"].DB().Log().FlushedLSN()
	if aEnd <= bEnd {
		t.Fatalf("arrangement lost: a (%v) must be ahead of b (%v)", aEnd, bEnd)
	}
	f.downPrimary()

	router := NewRouter(f.prim, RouterOptions{SnapshotWait: 5 * time.Second})
	orch := NewOrchestrator(f.prim, f.ship, router, OrchestratorOptions{
		Clock:       f.mock,
		HealthEvery: time.Second,
		FailAfter:   2 * time.Second,
		Shipper:     ShipperOptions{HeartbeatEvery: 10 * time.Millisecond},
		Replica:     f.replicaOptions(),
	})
	defer orch.Close()
	orch.AddStandby("a", f.dirs["a"], f.reps["a"])
	orch.AddStandby("b", f.dirs["b"], f.reps["b"])

	t0 := f.mock.Now()
	orch.Tick() // detects the loss, starts the grace
	f.mock.Advance(time.Second)
	orch.Tick() // inside the grace: no promotion yet
	if got := orch.Primary(); got != f.prim {
		t.Fatal("promoted inside the failover grace")
	}
	f.mock.Advance(time.Second)
	orch.Tick() // grace expired: failover

	newPrim := orch.Primary()
	if newPrim == f.prim {
		t.Fatal("failover did not promote")
	}
	defer func() { orch.Close(); newPrim.Close() }() // sessions end before their source engine
	if tli, hist := newPrim.Timeline(); tli != 2 || len(hist) != 1 || hist[0].End != aEnd {
		t.Fatalf("promoted lineage %s, want timeline 2 forked off 1 at %v", wal.DescribeLineage(tli, hist), aEnd)
	}
	if router.Primary() != newPrim {
		t.Fatal("router was not failed over to the promoted node")
	}
	if got := orch.Standbys(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("managed standbys after failover: %v, want [b]", got)
	}

	kinds := eventKinds(orch.Events())
	want := []string{"primary-lost", "promote:a", "repoint:b"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event schedule %v, want %v", kinds, want)
	}
	events := orch.Events()
	if !events[0].At.Equal(t0) {
		t.Fatalf("primary-lost at %v, want %v", events[0].At, t0)
	}
	if wantAt := t0.Add(2 * time.Second); !events[1].At.Equal(wantAt) {
		t.Fatalf("promote at %v, want %v (virtual)", events[1].At, wantAt)
	}

	// The same decisions must be scrapeable: the per-kind event counters
	// live on the initial primary's registry (plain memory, outliving the
	// crashed engine) and carry exactly the schedule asserted above.
	snap := f.prim.Obs().Snapshot()
	for _, kind := range []string{"primary-lost", "promote", "repoint"} {
		key := `repl_orchestrator_events_total{kind="` + kind + `"}`
		if got := snap[key]; got != 1 {
			t.Fatalf("%s = %v, want 1 (snapshot %v)", key, got, snap)
		}
	}
	var prom strings.Builder
	if err := f.prim.Obs().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `repl_orchestrator_events_total{kind="promote"} 1`) {
		t.Fatalf("promote counter missing from Prometheus exposition:\n%s", prom.String())
	}

	// The survivor converges on the promoted node, and a session routed
	// through the failed-over router reads its own post-failover write.
	f.commitRows(newPrim, "fo", 200, 210)
	waitApplied(t, orch.Standby("b"), newPrim.Log().FlushedLSN())
	if tli, _ := orch.Standby("b").DB().Timeline(); tli != 2 {
		t.Fatalf("survivor adopted timeline %d, want 2", tli)
	}
	route, err := router.Pick(newPrim.Log().FlushedLSN())
	if err != nil {
		t.Fatal(err)
	}
	if route.AppliedLSN < newPrim.Log().FlushedLSN() {
		t.Fatalf("route %q applied %v, want ≥ %v", route.Name, route.AppliedLSN, newPrim.Log().FlushedLSN())
	}
}

// TestOrchestratorQuorumHold pins the split-brain guard: with fewer live
// standbys than PromoteQuorum the orchestrator refuses to promote — every
// tick logs the hold — until the quorum is met.
func TestOrchestratorQuorumHold(t *testing.T) {
	f := newOrchFixture(t, "a", "b")
	mustExec(t, f.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("qh")) })
	f.commitRows(f.prim, "qh", 0, 50)
	f.catchUp("a")
	f.catchUp("b")
	f.downPrimary()

	orch := NewOrchestrator(f.prim, f.ship, nil, OrchestratorOptions{
		Clock:         f.mock,
		HealthEvery:   time.Second,
		FailAfter:     time.Second,
		PromoteQuorum: 2,
		Shipper:       ShipperOptions{HeartbeatEvery: 10 * time.Millisecond},
		Replica:       f.replicaOptions(),
	})
	defer orch.Close()
	orch.AddStandby("a", f.dirs["a"], f.reps["a"])

	orch.Tick()
	f.mock.Advance(time.Second)
	orch.Tick() // due, but 1 live standby < quorum 2: hold
	f.mock.Advance(time.Second)
	orch.Tick() // still held
	if orch.Primary() != f.prim {
		t.Fatal("promoted below quorum")
	}
	holds := 0
	for _, e := range orch.Events() {
		if e.Kind == "quorum-hold" {
			holds++
		}
	}
	if holds != 2 {
		t.Fatalf("%d quorum-hold events, want 2 (one per due tick)", holds)
	}

	orch.AddStandby("b", f.dirs["b"], f.reps["b"])
	orch.Tick() // quorum met: promote
	newPrim := orch.Primary()
	if newPrim == f.prim {
		t.Fatal("quorum met but no promotion")
	}
	defer func() { orch.Close(); newPrim.Close() }()
	if tli, _ := newPrim.Timeline(); tli != 2 {
		t.Fatalf("promoted to timeline %d, want 2", tli)
	}
}

// tearTail crash-restarts the named standby with a torn log tail: the last
// 512 bytes of its newest segment are cut and replaced with a torn frame
// header, so it reopens strictly behind wherever it had acked.
func (f *orchFixture) tearTail(name string) {
	f.t.Helper()
	rep := f.reps[name]
	rep.db.Crash()
	segs, err := wal.ListSegments(filepath.Join(f.dirs[name], "wal"))
	if err != nil {
		f.t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	cut := tail.Bytes - 512
	if cut <= 0 {
		f.t.Fatalf("tail segment too small to tear (%d bytes)", tail.Bytes)
	}
	if err := os.Truncate(tail.Path, segHeaderBytes(f.t)+cut); err != nil {
		f.t.Fatal(err)
	}
	fh, err := os.OpenFile(tail.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		f.t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x07, 0x00, 0x00}); err != nil {
		f.t.Fatal(err)
	}
	fh.Close()
	reopened, err := OpenReplica(f.dirs[name], f.replicaOptions())
	if err != nil {
		f.t.Fatal(err)
	}
	f.reps[name] = reopened
}

// TestOrchestratorOrphanAutoReseed pins the acceptance scenario: a standby
// holding acknowledged bytes past the failover fork is refused by the
// promoted node's timeline check, detected as an orphan, wiped, reseeded
// from a backup of the new primary, and converges byte-identically on the
// new timeline.
func TestOrchestratorOrphanAutoReseed(t *testing.T) {
	f := newOrchFixture(t, "a", "b")
	mustExec(t, f.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("orph")) })
	for i := 0; i < 4; i++ {
		f.commitRows(f.prim, "orph", i*100, (i+1)*100)
	}
	f.catchUp("a")
	f.catchUp("b") // both at L1; b then goes offline holding it
	bEnd := f.reps["b"].DB().Log().FlushedLSN()
	f.tearTail("a") // a crash-restarts behind b
	aEnd := f.reps["a"].DB().Log().FlushedLSN()
	if aEnd >= bEnd {
		t.Fatalf("arrangement lost: torn a (%v) must be behind offline b (%v)", aEnd, bEnd)
	}
	f.downPrimary()

	orch := NewOrchestrator(f.prim, f.ship, nil, OrchestratorOptions{
		Clock:       f.mock,
		HealthEvery: time.Second,
		FailAfter:   time.Second,
		Shipper:     ShipperOptions{HeartbeatEvery: 10 * time.Millisecond},
		Replica:     f.replicaOptions(),
	})
	defer orch.Close()
	orch.AddStandby("a", f.dirs["a"], f.reps["a"])
	orch.Tick()
	f.mock.Advance(time.Second)
	orch.Tick() // promotes a at fork aEnd, timeline 2
	newPrim := orch.Primary()
	if newPrim == f.prim {
		t.Fatal("failover did not promote a")
	}
	defer func() { orch.Close(); newPrim.Close() }()
	f.commitRows(newPrim, "orph", 1000, 1020) // post-fork divergence

	// b comes back holding bEnd > fork on timeline 1: its session must be
	// refused mechanically, the orchestrator must classify it as an orphan
	// and reseed it from the new primary — no operator in the loop.
	orch.AddStandby("b", f.dirs["b"], f.reps["b"])
	deadline := time.Now().Add(20 * time.Second)
	for {
		orch.Tick()
		reseeded := false
		for _, e := range orch.Events() {
			if e.Kind == "reseed" && e.Node == "b" {
				reseeded = true
			}
		}
		if reseeded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orchestrator never reseeded the orphan; events: %v", eventKinds(orch.Events()))
		}
		time.Sleep(time.Millisecond)
	}
	var orphanEvent *Event
	evs := orch.Events()
	for i := range evs {
		if evs[i].Kind == "orphan" && evs[i].Node == "b" {
			orphanEvent = &evs[i]
		}
	}
	if orphanEvent == nil {
		t.Fatalf("no orphan event before the reseed; events: %v", eventKinds(orch.Events()))
	}
	if !strings.Contains(orphanEvent.Detail, "ahead of the fork") {
		t.Fatalf("orphan event should carry the mechanical refusal, got: %s", orphanEvent.Detail)
	}

	// The reseeded b is a different Replica on the new timeline; it
	// converges byte-identically with the promoted primary.
	b2 := orch.Standby("b")
	if b2 == f.reps["b"] {
		t.Fatal("reseed did not replace the orphan replica")
	}
	waitApplied(t, b2, newPrim.Log().FlushedLSN())
	if tli, hist := b2.DB().Timeline(); tli != 2 || len(hist) != 1 {
		t.Fatalf("reseeded lineage %s, want timeline 2 with 1 fork", wal.DescribeLineage(tli, hist))
	}
	horizon := f.mock.Now()
	f.mock.Advance(time.Second)
	ps, err := asof.CreateSnapshot(newPrim, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	bs, err := b2.SnapshotAsOf(horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	pd, bd := digest(t, ps), digest(t, bs)
	if fmt.Sprint(pd) != fmt.Sprint(bd) {
		t.Fatalf("reseeded standby diverged:\nprimary: %v\nstandby: %v", pd, bd)
	}
	// Zero lost acknowledged commits at or below the fork: the three seed
	// batches wholly below the promoted node's durable end survive (300
	// rows), joined by the 20 post-fork rows. The fourth batch was torn out
	// of the winner's log before the fork was taken — it lives on no
	// surviving branch, which is exactly what the orphan wipe discards.
	if _, ok := pd["orph/320"]; !ok {
		t.Fatalf("promoted primary lost pre-fork rows (want 300 seed + 20 post-fork): %v", pd)
	}
}

// stallConn is a Conn whose Send blocks until the conn closes — the
// write-stalled peer the promotion fence must not wait on forever.
type stallConn struct {
	recvq  chan *Frame
	closed chan struct{}
	once   sync.Once
}

func newStallConn() *stallConn {
	return &stallConn{recvq: make(chan *Frame, 4), closed: make(chan struct{})}
}

func (c *stallConn) Send(f *Frame) error {
	<-c.closed
	return ErrClosed
}

func (c *stallConn) Recv() (*Frame, error) {
	select {
	case f := <-c.recvq:
		return f, nil
	case <-c.closed:
		return nil, ErrClosed
	}
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestShipperFenceGraceVirtual pins the promotion fence's bounded wait on
// virtual time: a write-stalled subscriber cannot hang the fence; the
// grace expires at an exact virtual instant and the fence proceeds.
func TestShipperFenceGraceVirtual(t *testing.T) {
	mock := clock.NewMock(time.Unix(1000, 0))
	db, err := engine.Open(t.TempDir(), engine.Options{Clock: mock, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ship := NewShipper(db, ShipperOptions{}) // fenceGrace: one virtual second
	conn := newStallConn()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ship.Serve(conn) }()
	conn.recvq <- &Frame{Kind: KindSubscribe, From: 1}

	// Wait until the session is tracked (Serve registers its conn before
	// any handshake I/O), so the fence has a peer to stall on.
	waitFor := time.Now().Add(5 * time.Second)
	for {
		ship.mu.Lock()
		n := len(ship.conns)
		ship.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatal("session never registered")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		ship.closeWith(&Frame{Kind: KindPromoted, From: db.Log().NextLSN() - 1})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("fence returned before the grace elapsed on the virtual clock")
	case <-time.After(100 * time.Millisecond):
	}
	mock.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fence grace did not release on the virtual advance")
	}
	<-serveDone
}

// TestRouterPickVirtualDeadline pins Pick's wait budget on the injected
// clock: with no standby and no fallback, ErrNoRoute fires when the
// virtual deadline passes — not a real-time one.
func TestRouterPickVirtualDeadline(t *testing.T) {
	mock := clock.NewMock(time.Unix(1000, 0))
	rt := NewRouter(nil, RouterOptions{SnapshotWait: 30 * time.Second, Clock: mock})
	res := make(chan error, 1)
	go func() {
		_, err := rt.Pick(42)
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("Pick returned %v before the virtual deadline", err)
	case <-time.After(100 * time.Millisecond):
	}
	mock.Advance(31 * time.Second)
	select {
	case err := <-res:
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("Pick returned %v, want ErrNoRoute", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Pick did not observe the virtual deadline")
	}
}

// TestReplicaSnapshotVirtualDeadline pins SnapshotAsOf's 10 s lag-wait
// budget on the injected clock: a paused standby returns ErrReplicaLagging
// when the virtual deadline passes.
func TestReplicaSnapshotVirtualDeadline(t *testing.T) {
	f := newOrchFixture(t, "a")
	rep := f.reps["a"]
	mustExec(t, f.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("lagwait")) })
	f.catchUp("a")
	rep.PauseApply()
	h := connectPair(t, f.ship, rep)
	defer h.stop()
	f.commitRows(f.prim, "lagwait", 0, 10)
	// Paused apply defers redo but not ingest: wait for the commit's bytes
	// to land in the local log, so the split resolves above the (frozen)
	// applied position and the snapshot genuinely has to wait.
	ingestDeadline := time.Now().Add(10 * time.Second)
	for rep.DB().Log().FlushedLSN() < f.prim.Log().FlushedLSN() {
		if time.Now().After(ingestDeadline) {
			t.Fatalf("replica never ingested the commit (local %v, primary %v)",
				rep.DB().Log().FlushedLSN(), f.prim.Log().FlushedLSN())
		}
		time.Sleep(time.Millisecond)
	}
	at := f.mock.Now()
	f.mock.Advance(time.Second) // strict horizon, chain-test idiom

	res := make(chan error, 1)
	go func() {
		s, err := rep.SnapshotAsOf(at)
		if s != nil {
			s.Close()
		}
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("SnapshotAsOf returned %v before the virtual deadline", err)
	case <-time.After(100 * time.Millisecond):
	}
	f.mock.Advance(snapshotWait + time.Second)
	select {
	case err := <-res:
		if !errors.Is(err, asof.ErrReplicaLagging) {
			t.Fatalf("SnapshotAsOf returned %v, want ErrReplicaLagging", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SnapshotAsOf did not observe the virtual deadline")
	}
}
