package repl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Chaos suite: randomized multi-node fault schedules over the orchestrator.
//
// Each schedule builds a primary + three-standby tree on one virtual clock,
// then composes the package's existing fault injectors — engine crashes,
// torn log tails, sticky write-failure poisoning, paused apply, retention
// outrunning a subscriber, primary loss with auto-failover — into a random
// op sequence drawn from a seeded PRNG. The op sequence and every virtual
// timestamp are deterministic under the seed; physical goroutine
// interleavings (and hence which standby wins a failover) may vary, so the
// suite asserts schedule-independent invariants rather than exact event
// logs:
//
//   - zero lost acknowledged commits: every commit acknowledged to a client
//     survives to the end unless its LSN lies above a failover fork — in
//     which case it is counted out explicitly when the fork is taken, never
//     silently;
//   - convergence: after the schedule, every managed standby streams on the
//     primary's timeline and reaches its durable end;
//   - byte-identical as-of digests on the surviving timeline across the
//     primary and every standby.
//
// ASOFDB_CHAOS_SEED overrides the base seed (schedule i runs seed+i);
// ASOFDB_CHAOS_N overrides the schedule count. CI runs a fresh seed at
// N=200 under -race and logs it for replay; the in-tree default is a fixed
// seed at a small N so `go test ./...` stays fast and reproducible.
const (
	chaosDefaultSeed = 0xA50FDB
	chaosDefaultN    = 5
)

func chaosEnvInt(t *testing.T, name string, def int64) int64 {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestChaos(t *testing.T) {
	seed := chaosEnvInt(t, "ASOFDB_CHAOS_SEED", chaosDefaultSeed)
	n := int(chaosEnvInt(t, "ASOFDB_CHAOS_N", chaosDefaultN))
	t.Logf("chaos: %d schedules from base seed %d — replay a failing schedule with ASOFDB_CHAOS_SEED=<its seed> ASOFDB_CHAOS_N=1", n, seed)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		t.Run(fmt.Sprintf("seed-%d", s), func(t *testing.T) {
			runChaosSchedule(t, s)
		})
	}
}

// chaosCommit is one acknowledged commit: the rows it inserted and the LSN
// its acknowledgement rode on.
type chaosCommit struct {
	ids []int
	lsn wal.LSN
}

type chaosHarness struct {
	t       *testing.T
	rng     *rand.Rand
	mock    *clock.Mock
	orch    *Orchestrator
	router  *Router
	ship    *Shipper // the pre-failover shipper (harness-owned)
	repOpts ReplicaOptions
	dirs    map[string]string

	nextID  int
	joinSeq int
	acked   []chaosCommit

	// The CREATE TABLE commit is acknowledged like the row commits: a
	// failover whose fork is below it discounts the table, and every insert
	// after that is refused.
	tableLSN  wal.LSN
	tableLost bool
	refused   int // inserts refused for want of the table
}

func runChaosSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mock := clock.NewMock(time.Unix(1_700_000_000, 0))
	engOpts := engine.Options{
		Clock:           mock,
		SyncPolicy:      testSyncPolicy(t),
		Retention:       time.Minute,
		LogSegmentBytes: 8 << 10,
		LogArchiveDir:   filepath.Join(t.TempDir(), "archive"),
	}
	prim, err := engine.Open(t.TempDir(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	ship := NewShipper(prim, ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	router := NewRouter(prim, RouterOptions{Clock: mock})
	repOpts := ReplicaOptions{Engine: engine.Options{
		Clock:           mock,
		SyncPolicy:      testSyncPolicy(t),
		Retention:       time.Minute,
		LogSegmentBytes: 8 << 10,
	}}
	orch := NewOrchestrator(prim, ship, router, OrchestratorOptions{
		Clock:       mock,
		HealthEvery: 500 * time.Millisecond,
		FailAfter:   time.Second,
		Shipper:     ShipperOptions{HeartbeatEvery: 20 * time.Millisecond},
		Replica:     repOpts,
		Logf:        t.Logf,
	})
	h := &chaosHarness{
		t: t, rng: rng, mock: mock, orch: orch, router: router, ship: ship,
		repOpts: repOpts, dirs: make(map[string]string),
	}
	defer h.teardown()

	create, err := prim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := create.CreateTable(testSchema("chaos")); err != nil {
		t.Fatal(err)
	}
	if err := create.Commit(); err != nil {
		t.Fatal(err)
	}
	h.tableLSN = create.CommitLSN()
	h.commitBatch()
	for _, name := range []string{"s1", "s2", "s3"} {
		dir := t.TempDir()
		rep, err := OpenReplica(dir, repOpts)
		if err != nil {
			t.Fatal(err)
		}
		h.dirs[name] = dir
		orch.AddStandby(name, dir, rep)
	}
	h.settle(2)

	nOps := 10 + rng.Intn(8)
	for i := 0; i < nOps; i++ {
		switch draw := rng.Intn(100); {
		case draw < 35:
			h.opCommit()
		case draw < 58:
			h.settle(1 + rng.Intn(3))
		case draw < 70:
			h.opCrashStandby()
		case draw < 78:
			h.opPausePulse()
		case draw < 86:
			h.opRetentionChurn()
		case draw < 94:
			h.opFailWritesPulse()
		default:
			h.opKillPrimary()
		}
	}

	h.converge()
	h.assertFinal()
}

// teardown closes sessions before their source engines (a closed Shipper
// session must never outlive the log it reads), then the nodes themselves.
// Crashed engines are abandoned, like every crash test in this package.
func (h *chaosHarness) teardown() {
	h.orch.Close()
	h.ship.Close()
	for _, name := range h.orch.Standbys() {
		if rep := h.orch.Standby(name); rep != nil {
			rep.Close()
		}
	}
	if prim := h.orch.Primary(); !prim.Closed() {
		prim.Close()
	}
}

func (h *chaosHarness) eventDump() string {
	var b strings.Builder
	for _, e := range h.orch.Events() {
		fmt.Fprintf(&b, "  %v %s\n", e.At.Format("15:04:05.000"), e)
	}
	return b.String()
}

// settle drives n orchestration rounds, each advancing virtual time by a
// seeded random step so session heartbeats, ack cadences, and health
// deadlines all fire at schedule-determined instants.
func (h *chaosHarness) settle(n int) {
	for i := 0; i < n; i++ {
		h.orch.Tick()
		h.mock.Advance(time.Duration(10+h.rng.Intn(500)) * time.Millisecond)
		time.Sleep(time.Millisecond) // let streaming goroutines run
	}
}

// commitBatch commits one batch of fresh rows on the current primary and
// records the acknowledgement. A failed begin/commit (dead primary mid-op)
// acknowledges nothing and is simply not recorded.
func (h *chaosHarness) commitBatch() {
	db := h.orch.Primary()
	tx, err := db.Begin()
	if err != nil {
		return
	}
	n := 1 + h.rng.Intn(20)
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id := h.nextID
		h.nextID++
		if err := tx.Insert("chaos", testRow(id, "chaos", id)); err != nil {
			tx.Rollback()
			if h.tableLost {
				h.refused++
			}
			return
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		return
	}
	h.acked = append(h.acked, chaosCommit{ids: ids, lsn: tx.CommitLSN()})
}

func (h *chaosHarness) opCommit() {
	for i, n := 0, 1+h.rng.Intn(3); i < n; i++ {
		h.commitBatch()
	}
}

// pickStandby returns a uniformly drawn managed standby name ("" when the
// fleet is empty). Standbys() is sorted, so the draw depends only on the
// seed and the (schedule-determined) fleet membership.
func (h *chaosHarness) pickStandby() string {
	names := h.orch.Standbys()
	if len(names) == 0 {
		return ""
	}
	return names[h.rng.Intn(len(names))]
}

// opCrashStandby crash-restarts one standby, half the time tearing the
// tail of its newest segment first so it reopens behind what it had acked.
func (h *chaosHarness) opCrashStandby() {
	name := h.pickStandby()
	tear := h.rng.Intn(2) == 0 // draw before any early return, for determinism
	if name == "" {
		return
	}
	rep := h.orch.RemoveStandby(name)
	if rep == nil {
		return
	}
	rep.DB().Crash()
	if tear {
		h.tearTailDir(h.dirs[name])
	}
	reopened, err := OpenReplica(h.dirs[name], h.repOpts)
	if err != nil {
		h.t.Fatalf("reopening crashed standby %s: %v", name, err)
	}
	h.orch.AddStandby(name, h.dirs[name], reopened)
}

// tearTailDir cuts 512 bytes plus a torn frame header into the newest
// segment of dir's log; no-op when the tail is too small to tear.
func (h *chaosHarness) tearTailDir(dir string) {
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		return
	}
	tail := segs[len(segs)-1]
	cut := tail.Bytes - 512
	if cut <= 0 {
		return
	}
	if err := os.Truncate(tail.Path, segHeaderBytes(h.t)+cut); err != nil {
		h.t.Fatal(err)
	}
	fh, err := os.OpenFile(tail.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x07, 0x00, 0x00}); err != nil {
		h.t.Fatal(err)
	}
	fh.Close()
}

// opPausePulse pauses one standby's redo for a few rounds, then resumes it:
// ingest continues (the §6.2 split), so the node falls behind on apply but
// not on bytes.
func (h *chaosHarness) opPausePulse() {
	rounds := 1 + h.rng.Intn(3)
	name := h.pickStandby()
	if name == "" {
		return
	}
	rep := h.orch.Standby(name)
	if rep == nil {
		return
	}
	rep.PauseApply()
	h.settle(rounds)
	rep.ResumeApply()
}

// opRetentionChurn marches the primary's retention horizon forward and
// checkpoints so sealed segments are dropped (archived on the original
// primary, unlinked on a promoted one). A standby that is down across the
// churn resubscribes below the live floor: served from the archive when
// there is one, refused — and reseeded — when there is not.
func (h *chaosHarness) opRetentionChurn() {
	h.commitBatch()
	h.commitBatch()
	if err := h.orch.Primary().Checkpoint(); err != nil {
		h.t.Fatalf("checkpoint: %v", err)
	}
	h.mock.Advance(2 * time.Minute)
	h.commitBatch()
	if err := h.orch.Primary().Checkpoint(); err != nil {
		h.t.Fatalf("checkpoint: %v", err)
	}
	h.settle(1)
}

// opFailWritesPulse poisons one standby's log writes — the manager's
// sticky-failure injector, so every session it opens afterwards dies too —
// commits through the window, then models a disk replacement: crash the
// node and reopen it from the durable prefix.
func (h *chaosHarness) opFailWritesPulse() {
	rounds := 1 + h.rng.Intn(2)
	name := h.pickStandby()
	if name == "" {
		return
	}
	rep := h.orch.Standby(name)
	if rep == nil {
		return
	}
	rep.DB().Log().InjectWriteFailures(true)
	h.commitBatch()
	h.settle(rounds)
	rep.DB().Log().InjectWriteFailures(false) // poisoning is sticky; only the reopen below recovers
	removed := h.orch.RemoveStandby(name)
	if removed == nil { // reseeded away mid-settle; the fleet already recovered
		return
	}
	removed.DB().Crash()
	reopened, err := OpenReplica(h.dirs[name], h.repOpts)
	if err != nil {
		h.t.Fatalf("reopening poisoned standby %s: %v", name, err)
	}
	h.orch.AddStandby(name, h.dirs[name], reopened)
}

// opKillPrimary crashes the primary (shipper included — a dead process
// ships nothing even while its log files stay readable), waits for the
// orchestrator to promote a successor, discounts acknowledged commits above
// the fork (they lived on no surviving node — that loss is the explicit,
// counted semantics of promotion), and joins a fresh empty standby to keep
// the fleet at strength. The wait requires a streaming standby first so a
// candidate exists; the quorum default is 1.
//
// A third of kills are correlated outages: a final burst of commits, then
// every standby crash-restarts with a torn tail alongside the primary — so
// the winner's durable end sits below acknowledged history and the
// above-the-fork discount genuinely fires.
func (h *chaosHarness) opKillPrimary() {
	h.waitForStreamingStandby()
	correlated := h.rng.Intn(3) == 0
	old := h.orch.Primary()
	if correlated {
		h.opCommit() // the burst the torn fleet will not have retained
	}
	old.Crash()
	h.orch.Shipper().Close()
	if correlated {
		for _, name := range h.orch.Standbys() {
			rep := h.orch.RemoveStandby(name)
			if rep == nil {
				continue
			}
			rep.DB().Crash()
			h.tearTailDir(h.dirs[name])
			reopened, err := OpenReplica(h.dirs[name], h.repOpts)
			if err != nil {
				h.t.Fatalf("reopening torn standby %s: %v", name, err)
			}
			h.orch.AddStandby(name, h.dirs[name], reopened)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for h.orch.Primary() == old {
		h.orch.Tick()
		h.mock.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
		if time.Now().After(deadline) {
			h.t.Fatalf("failover never completed; events:\n%s", h.eventDump())
		}
	}
	tli, hist := h.orch.Timeline()
	fork := hist[len(hist)-1].End
	kept, lost := h.acked[:0], 0
	for _, c := range h.acked {
		if c.lsn <= fork {
			kept = append(kept, c)
		} else {
			lost++
		}
	}
	h.acked = kept
	h.t.Logf("chaos: failover to timeline %d, fork %v, %d acked commits above the fork discounted", tli, fork, lost)
	if !h.tableLost && h.tableLSN > fork {
		h.tableLost = true
		h.t.Logf("chaos: the table's creation at %v is above the fork: discounted too", h.tableLSN)
	}

	h.joinSeq++
	name := fmt.Sprintf("j%d", h.joinSeq)
	dir := h.t.TempDir()
	rep, err := OpenReplica(dir, h.repOpts)
	if err != nil {
		h.t.Fatal(err)
	}
	h.dirs[name] = dir
	h.orch.AddStandby(name, dir, rep)
}

func (h *chaosHarness) waitForStreamingStandby() {
	deadline := time.Now().Add(60 * time.Second)
	for {
		for _, st := range h.orch.Status() {
			if st.State == "streaming" {
				return
			}
		}
		h.orch.Tick()
		h.mock.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
		if time.Now().After(deadline) {
			h.t.Fatalf("no standby ever reached streaming; events:\n%s", h.eventDump())
		}
	}
}

// converge drives the orchestrator until every managed standby streams on
// the primary's timeline and has applied its durable end.
func (h *chaosHarness) converge() {
	h.commitBatch() // sentinel: every node must reach past this
	prim := h.orch.Primary()
	tli, _ := prim.Timeline()
	deadline := time.Now().Add(90 * time.Second)
	for {
		h.orch.Tick()
		h.mock.Advance(50 * time.Millisecond)
		time.Sleep(time.Millisecond)
		target := prim.Log().FlushedLSN()
		sts := h.orch.Status()
		ok := len(sts) > 0
		for _, st := range sts {
			if st.State != "streaming" || st.Applied < target || st.Timeline != tli {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("fleet never converged on timeline %d at %v;\nstatus: %+v\nevents:\n%s",
				tli, prim.Log().FlushedLSN(), h.orch.Status(), h.eventDump())
		}
	}
}

// assertFinal checks the two end-of-schedule invariants: byte-identical
// as-of digests across the tree, and exactly the surviving acknowledged
// rows present — no acknowledged commit at or below every fork is lost, and
// no discounted commit resurfaces. A discounted table creation means no
// table at all.
func (h *chaosHarness) assertFinal() {
	at := h.mock.Now()
	h.mock.Advance(time.Second) // strict horizon
	prim := h.orch.Primary()
	ps, err := asof.CreateSnapshot(prim, at, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	defer ps.Close()
	pd := digest(h.t, ps)

	want := 0
	for _, c := range h.acked {
		want += len(c.ids)
	}
	if h.tableLost {
		h.t.Logf("chaos: table discounted by a failover, %d later inserts refused", h.refused)
		table := false
		for k := range pd {
			table = table || strings.HasPrefix(k, "chaos/")
		}
		if table || want != 0 {
			h.t.Fatalf("acked-commit invariant broken: the table's creation was discounted, yet %d rows are acked and the primary digest is %v\nevents:\n%s",
				want, pd, h.eventDump())
		}
	} else if _, ok := pd[fmt.Sprintf("chaos/%d", want)]; !ok {
		h.t.Fatalf("acked-commit invariant broken: want exactly %d surviving rows, primary digest %v\nevents:\n%s",
			want, pd, h.eventDump())
	}

	for _, name := range h.orch.Standbys() {
		ss, err := h.orch.Standby(name).SnapshotAsOf(at)
		if err != nil {
			h.t.Fatalf("standby %s as-of: %v", name, err)
		}
		sd := digest(h.t, ss)
		ss.Close()
		if fmt.Sprint(pd) != fmt.Sprint(sd) {
			h.t.Fatalf("standby %s diverged from primary at the same horizon:\nprimary: %v\nstandby: %v\nevents:\n%s",
				name, pd, sd, h.eventDump())
		}
	}

	// Read routing across the converged fleet: a session holding the last
	// acknowledged commit's token must be routable without primary fallback.
	if len(h.acked) > 0 {
		token := h.acked[len(h.acked)-1].lsn
		route, err := h.router.Pick(token)
		if err != nil {
			h.t.Fatalf("routing token %v: %v", token, err)
		}
		if route.AppliedLSN < token {
			h.t.Fatalf("route %q applied %v below session token %v", route.Name, route.AppliedLSN, token)
		}
	}
}
