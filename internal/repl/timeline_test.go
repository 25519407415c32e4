package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// TestCheckAncestryMatrix pins the mechanical admission rule the shipper
// applies to every subscription: the subscriber's position must lie on (an
// ancestor of) the server's timeline history, and every refusal message
// must name the geometry and the remedy.
func TestCheckAncestryMatrix(t *testing.T) {
	// Server lineage: timeline 1 ended at 1000, timeline 2 ended at 2000,
	// now on timeline 3.
	srvTLI := wal.TimelineID(3)
	srvHist := wal.TimelineHistory{{TLI: 1, End: 1000}, {TLI: 2, End: 2000}}

	cases := []struct {
		name    string
		sub     timelineInfo
		from    wal.LSN
		admit   bool
		wantMsg []string // substrings every refusal must carry
	}{
		{name: "same timeline, same history",
			sub:  timelineInfo{TLI: 3, History: srvHist},
			from: 2500, admit: true},
		{name: "ancestor timeline at the fork boundary",
			sub:  timelineInfo{TLI: 2, History: srvHist[:1]},
			from: 2001, admit: true},
		{name: "ancestor timeline behind its fork",
			sub:  timelineInfo{TLI: 2, History: srvHist[:1]},
			from: 1500, admit: true},
		{name: "ancestor timeline ahead of its fork",
			sub:  timelineInfo{TLI: 2, History: srvHist[:1]},
			from: 2101, admit: false,
			wantMsg: []string{"100 bytes ahead of the fork", "forked off timeline 2 at 2000", "reseed"}},
		{name: "subscriber on a later timeline than the server",
			sub:  timelineInfo{TLI: 4, History: append(srvHist.Clone(), wal.TimelineFork{TLI: 3, End: 2500})},
			from: 2600, admit: false,
			wantMsg: []string{"timeline 4", "promotion the server never saw"}},
		{name: "divergent fork history names both recorded LSNs",
			sub:  timelineInfo{TLI: 2, History: wal.TimelineHistory{{TLI: 1, End: 900}}},
			from: 1500, admit: false,
			wantMsg: []string{"ending at 900", "ending at 1000", "diverge", "reseed"}},
		{name: "sibling promotion (same TLI, shorter history)",
			sub:  timelineInfo{TLI: 3, History: srvHist[:1]},
			from: 1500, admit: false,
			wantMsg: []string{"both on timeline 3", "sibling"}},
		{name: "timeline the server never had",
			sub:  timelineInfo{TLI: 7, History: srvHist.Clone()},
			from: 2500, admit: false,
			wantMsg: []string{"timeline 7", "promotion the server never saw"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAncestry(srvTLI, srvHist, tc.sub, tc.from)
			if tc.admit {
				if err != nil {
					t.Fatalf("want admission, got: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("want refusal, got admission")
			}
			if !errors.Is(err, ErrTimelineDiverged) {
				t.Fatalf("refusal must match ErrTimelineDiverged, got: %v", err)
			}
			if !errors.Is(err, ErrSubscriptionRejected) {
				t.Fatalf("refusal must match ErrSubscriptionRejected (reseed classification), got: %v", err)
			}
			for _, want := range tc.wantMsg {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q must contain %q", err, want)
				}
			}
		})
	}
}

// TestTimelineAheadOfForkRefusedMechanically supersedes the prose-only
// guidance of the PR 5 fence: a replica holding bytes past the promotion
// fork is refused by the promoted node's shipper *mechanically*, from the
// timeline handshake alone — no operator reading error text required.
func TestTimelineAheadOfForkRefusedMechanically(t *testing.T) {
	c := newChain(t, engine.Options{})
	crashMidTierLosingTail(t, c, "mechfork")

	// Promote the torn mid-tier: its log forks below R2's end.
	fork := c.r1.DB().Log().NextLSN() - 1
	if wal.LSN(c.r2.DB().Log().Size()) <= fork {
		t.Fatalf("scenario lost: R2 (%v) is not ahead of the fork (%v)", c.r2.DB().Log().Size(), fork)
	}
	db1, err := c.r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	if tli, _ := db1.Timeline(); tli != 2 {
		t.Fatalf("promoted node on timeline %d, want 2", tli)
	}

	// R2 resubscribes at the promoted node. Its effective identity is
	// timeline 1 with a log end past the fork: the ancestry check must
	// refuse it before a single byte ships.
	ship1 := NewShipper(db1, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship1.Close()
	up, down := Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ship1.Serve(up) }()
	runErr := c.r2.Run(down)
	serveErr := <-serveDone
	up.Close()
	down.Close()

	if !errors.Is(runErr, ErrTimelineDiverged) {
		t.Fatalf("replica run ended with %v, want ErrTimelineDiverged", runErr)
	}
	if !errors.Is(runErr, ErrSubscriptionRejected) {
		t.Fatalf("timeline refusal must also classify as ErrSubscriptionRejected for reseed flows, got %v", runErr)
	}
	for _, want := range []string{"ahead of the fork", "reseed"} {
		if !strings.Contains(runErr.Error(), want) {
			t.Fatalf("refusal %q must contain %q", runErr, want)
		}
	}
	if serveErr == nil || !strings.Contains(serveErr.Error(), "refusing subscription") {
		t.Fatalf("server side should record the refusal, got: %v", serveErr)
	}
	// Not a byte shipped: the orphan's log end is exactly where it was.
	if got := c.r2.DB().Log().NextLSN() - 1; got <= fork {
		t.Fatalf("orphan log end %v at or below the fork %v — the scenario collapsed", got, fork)
	}
}

// TestTimelineResubscribeAcrossPromotions walks a standby through one and
// then two promotions it was offline for: holding only pre-fork bytes it
// must be admitted each time, adopt the promoted lineage, converge to
// byte-identical state — and keep the adopted identity across a restart.
func TestTimelineResubscribeAcrossPromotions(t *testing.T) {
	c := newChain(t, engine.Options{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("hop")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("hop", testRow(i, "seed", i)); err != nil {
				return err
			}
		}
		return nil
	})
	c.waitChain()

	// Take R2 offline at the shared prefix, then promote the mid-tier.
	c.hop2.stop()
	c.hop2 = nil
	c.hop1.stop()
	c.hop1 = nil
	db1, err := c.r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	mustExec(t, db1, func(tx *engine.Txn) error {
		for i := 50; i < 80; i++ {
			if err := tx.Insert("hop", testRow(i, "tl2", i)); err != nil {
				return err
			}
		}
		return nil
	})

	// One promotion: R2 (timeline-1 bytes, at the fork) resubscribes at the
	// promoted node and adopts timeline 2.
	ship1 := NewShipper(db1, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	h := connectPair(t, ship1, c.r2)
	waitApplied(t, c.r2, db1.Log().FlushedLSN())
	if tli, hist := c.r2.DB().Timeline(); tli != 2 || len(hist) != 1 {
		t.Fatalf("after one promotion: replica lineage %s, want timeline 2 with 1 fork",
			wal.DescribeLineage(tli, hist))
	}
	if st := c.r2.Status(); st.Timeline != 2 {
		t.Fatalf("replica effective timeline %d, want 2 (post-fork bytes applied)", st.Timeline)
	}
	h.stop()
	ship1.Close()

	// Second promotion happens elsewhere: a fresh standby of db1 is
	// promoted to timeline 3 while R2 is offline again.
	dir3 := t.TempDir()
	r3, err := OpenReplica(dir3, c.replicaOptions())
	if err != nil {
		t.Fatal(err)
	}
	ship1b := NewShipper(db1, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	h3 := connectPair(t, ship1b, r3)
	waitApplied(t, r3, db1.Log().FlushedLSN())
	h3.stop()
	ship1b.Close()
	db3, err := r3.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	mustExec(t, db3, func(tx *engine.Txn) error { return tx.Insert("hop", testRow(99, "tl3", 99)) })

	// Two promotions: R2 presents timeline-2 bytes at-or-behind the second
	// fork and must be admitted by the timeline-3 server, then converge.
	ship3 := NewShipper(db3, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship3.Close()
	h = connectPair(t, ship3, c.r2)
	waitApplied(t, c.r2, db3.Log().FlushedLSN())
	if tli, hist := c.r2.DB().Timeline(); tli != 3 || len(hist) != 2 {
		t.Fatalf("after two promotions: replica lineage %s, want timeline 3 with 2 forks",
			wal.DescribeLineage(tli, hist))
	}
	horizon := c.clock.Now()
	c.clock.Advance(time.Second)
	snapP, err := asof.CreateSnapshot(db3, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snapP.Close()
	snapR, err := c.r2.SnapshotAsOf(horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer snapR.Close()
	if a, b := fmt.Sprint(digest(t, snapP)), fmt.Sprint(digest(t, snapR)); a != b {
		t.Fatalf("replica diverged across promotions:\nprimary: %v\nreplica: %v", a, b)
	}
	h.stop()

	// The adopted identity is durable: a restart presents timeline 3.
	wantTLI, wantHist := c.r2.DB().Timeline()
	if err := c.r2.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenReplica(c.dir2, c.replicaOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.r2 = reopened // teardown closes it
	if tli, hist := reopened.DB().Timeline(); tli != wantTLI || len(hist) != len(wantHist) {
		t.Fatalf("restart lost the adopted lineage: %s, want %s",
			wal.DescribeLineage(tli, hist), wal.DescribeLineage(wantTLI, wantHist))
	}
}

// TestTimelinePromoteBehindAdoptedFork: a standby that adopted a promoted
// upstream's lineage at its handshake, but holds no byte past that fork when
// it is promoted in turn, forks from the ancestor that owns its log end — its
// fork history never goes backwards — and a survivor holding bytes of the
// abandoned timeline is refused by the ancestry check instead of failing to
// adopt a malformed lineage.
func TestTimelinePromoteBehindAdoptedFork(t *testing.T) {
	c := newChain(t, engine.Options{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("fork")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("fork", testRow(1, "shared", 1)) })
	c.waitChain()

	// R2 stops at the shared prefix; R1 follows the primary further and is
	// promoted to timeline 2 there.
	c.hop2.stop()
	c.hop2 = nil
	behind := c.r2.DB().Log().NextLSN() - 1
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("fork", testRow(2, "tl1", 2)) })
	waitApplied(t, c.r1, c.prim.Log().FlushedLSN())
	c.hop1.stop()
	c.hop1 = nil
	db1, err := c.r1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	tli1, hist1 := db1.Timeline()
	if tli1 != 2 || len(hist1) != 1 || hist1[0].End <= behind {
		t.Fatalf("first promotion gave %s, want timeline 2 forked past %v", wal.DescribeLineage(tli1, hist1), behind)
	}
	mustExec(t, db1, func(tx *engine.Txn) error { return tx.Insert("fork", testRow(3, "tl2", 3)) })

	// The survivor: a standby of the timeline-2 primary holding its
	// post-fork bytes.
	surv, err := OpenReplica(t.TempDir(), c.replicaOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer surv.Close()
	ship1 := NewShipper(db1, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	h := connectPair(t, ship1, surv)
	waitApplied(t, surv, db1.Log().FlushedLSN())
	h.stop()
	ship1.Close()

	// R2 joins the timeline-2 primary, which dies after the handshake and
	// before a byte ships: R2 carries timeline 2's lineage over a log that
	// ends below its fork. Promoted, it forks from timeline 1 at its own end.
	if err := c.r2.adoptLineage(timelineInfo{TLI: tli1, History: hist1}); err != nil {
		t.Fatal(err)
	}
	db2, err := c.r2.Promote()
	if err != nil {
		t.Fatal(err)
	}
	want := wal.TimelineHistory{{TLI: 1, End: behind}}
	if tli, hist := db2.Timeline(); tli != 3 || fmt.Sprint(hist) != fmt.Sprint(want) {
		t.Fatalf("promotion behind the adopted fork gave %s, want %s",
			wal.DescribeLineage(tli, hist), wal.DescribeLineage(3, want))
	}

	ship2 := NewShipper(db2, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship2.Close()
	up, down := Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ship2.Serve(up) }()
	runErr := surv.Run(down)
	<-serveDone
	up.Close()
	down.Close()
	if !errors.Is(runErr, ErrTimelineDiverged) || strings.Contains(runErr.Error(), "not increasing") {
		t.Fatalf("survivor on %s subscribing to the timeline-3 node ended with %v, want ErrTimelineDiverged",
			wal.DescribeLineage(tli1, hist1), runErr)
	}
}

// TestTimelineBootWithoutLineageRefused: every boot record names a timeline.
// A fresh standby's first boot record carries the lineage of the hello it
// bootstrapped from; a boot block whose timeline extension is zero (page 0,
// with no control file to read first) is refused at Open; and a subscribe
// frame with no lineage is refused by the shipper instead of being admitted
// as timeline 1.
func TestTimelineBootWithoutLineageRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(dir, engine.Options{SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "v", 1)) })

	ship := NewShipper(db, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	rep, err := OpenReplica(t.TempDir(), ReplicaOptions{Engine: engine.Options{SyncPolicy: testSyncPolicy(t)}})
	if err != nil {
		t.Fatal(err)
	}
	h := connectPair(t, ship, rep)
	waitApplied(t, rep, db.Log().FlushedLSN())
	boots := rep.DB().Control().Records(control.KindBoot)
	if len(boots) == 0 || binary.LittleEndian.Uint32(boots[len(boots)-1].Body[40:]) != 1 {
		t.Fatalf("the standby's boot records %v do not name timeline 1", boots)
	}
	h.stop()
	rep.Close()

	up, down := Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ship.Serve(up) }()
	if err := down.Send(&Frame{Kind: KindSubscribe, From: 1}); err != nil {
		t.Fatal(err)
	}
	refusal, err := down.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if refusal.Kind != KindError {
		t.Fatalf("a subscribe with no lineage got %v (%s), want an error frame", refusal.Kind, refusal.Payload)
	}
	if err := <-serveDone; err == nil {
		t.Fatal("Serve admitted a subscribe with no lineage")
	}
	down.Close()
	up.Close()
	ship.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero page 0's timeline extension, restamp its checksum and drop the
	// control file, so Open has only that block to read.
	f, err := os.OpenFile(filepath.Join(dir, "data.db"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	boot := page.New()
	if _, err := f.ReadAt(boot.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	clear(boot.Bytes()[64+40 : 64+48])
	boot.WriteChecksum()
	if _, err := f.WriteAt(boot.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, control.Name)); err != nil {
		t.Fatal(err)
	}
	if db, err := engine.Open(dir, engine.Options{SyncPolicy: testSyncPolicy(t)}); err == nil {
		db.Close()
		t.Fatal("Open read a boot block with no timeline")
	}
}

// connectPair starts a Serve+Run session between ship and rep, returning
// the hop for teardown.
func connectPair(t *testing.T, ship *Shipper, rep *Replica) *hop {
	t.Helper()
	up, down := Pipe()
	h := &hop{up: up, down: down, serveDone: make(chan error, 1), runDone: make(chan error, 1)}
	go func() { h.serveDone <- ship.Serve(up) }()
	go func() { h.runDone <- rep.Run(down) }()
	return h
}

// waitApplied blocks until rep has applied through target.
func waitApplied(t *testing.T, rep *Replica, target wal.LSN) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %v, want %v", rep.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
}
