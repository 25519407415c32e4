package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/backup"
	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// OrchestratorOptions tunes the auto-failover orchestrator.
type OrchestratorOptions struct {
	// Clock is the decision time source. Every health deadline, failover
	// grace, and event timestamp is measured on it, so a virtual clock makes
	// whole failover schedules deterministic. Default: the primary's clock.
	Clock clock.Clock
	// HealthEvery is Run's tick cadence (default 500ms). Tick can also be
	// driven directly for virtual-time tests.
	HealthEvery time.Duration
	// FailAfter is how long the primary must stay unhealthy before the
	// orchestrator fails over (default 2×HealthEvery). The grace absorbs
	// transient probe hiccups; a genuinely dead primary is promoted past
	// after this long.
	FailAfter time.Duration
	// PromoteQuorum is the number of live standbys that must be available
	// for auto-promotion to proceed (default 1). With fewer, the
	// orchestrator holds — logging the quorum shortfall every tick — rather
	// than promote a lone survivor a partition may have isolated.
	PromoteQuorum int
	// Shipper configures shippers the orchestrator creates after a failover.
	Shipper ShipperOptions
	// Replica configures standbys the orchestrator reopens after a reseed.
	Replica ReplicaOptions
	// Logf, when set, receives a line per orchestration decision.
	Logf func(format string, args ...any)
}

func (o OrchestratorOptions) withDefaults(primary *engine.DB) OrchestratorOptions {
	if o.Clock == nil {
		o.Clock = primary.Clock()
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = 500 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2 * o.HealthEvery
	}
	if o.PromoteQuorum <= 0 {
		o.PromoteQuorum = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Event is one orchestration decision, timestamped on the injected clock so
// virtual-time tests can assert whole failover schedules exactly.
type Event struct {
	At     time.Time
	Kind   string // "primary-lost", "quorum-hold", "promote", "repoint", "orphan", "reseed", "reseed-failed", "session-down"
	Node   string // standby name; "" for primary-wide events
	Detail string
}

func (e Event) String() string {
	if e.Node == "" {
		return fmt.Sprintf("%s: %s", e.Kind, e.Detail)
	}
	return fmt.Sprintf("%s %s: %s", e.Kind, e.Node, e.Detail)
}

// orchNode is the orchestrator's view of one managed standby.
type orchNode struct {
	name string
	dir  string
	rep  *Replica
	sess *orchSession
	// orphaned marks a standby whose position is provably on no surviving
	// branch (ErrTimelineDiverged, or a retention rejection): resubscribing
	// can never succeed; only a reseed (or an operator) can bring it back.
	orphaned bool
	lastErr  error
}

// orchSession is one live Serve+Run goroutine pair over an in-process pipe.
type orchSession struct {
	up, down  Conn
	serveDone chan error
	runDone   chan error
}

func (s *orchSession) stop() error {
	s.up.Close()
	s.down.Close()
	<-s.serveDone
	return <-s.runDone
}

// Orchestrator supervises a primary and its standby fleet: health-checks
// the tree through the same Status piggybacks `asofctl repl-status` renders,
// re-establishes dropped sessions, and on primary loss promotes the
// best-positioned standby, re-points the survivors at it, and fails the
// read Router over — all on an injectable clock, so every decision sequence
// is reproducible in tests. Standbys whose logs hold bytes past the fork
// (on no surviving timeline) are detected mechanically by the timeline
// ancestry check and reseeded from a backup of the new primary.
//
// The orchestrator owns the shipping sessions it creates but not the nodes:
// Close ends sessions and leaves every engine and replica open for the
// caller (reachable via Primary and Standby). Tick is the whole decision
// loop — Run just calls it on a cadence — and is safe to drive directly
// under a virtual clock.
type Orchestrator struct {
	opts   OrchestratorOptions
	router *Router

	// obsReg is the initial primary's registry, captured at construction:
	// per-kind failover/reseed event counters live here. A registry is plain
	// memory that outlives engine Close, so the decision log of a whole
	// failover (old primary dead and all) stays scrapeable in one place.
	obsReg *obs.Registry

	mu             sync.Mutex
	primary        *engine.DB
	ship           *Shipper
	ownShip        bool // we created ship (post-failover) and must close it
	nodes          map[string]*orchNode
	unhealthySince time.Time
	events         []Event
	closed         bool
}

// NewOrchestrator supervises primary (served by ship) and fails router over
// on promotion. router may be nil when no read routing is in play.
func NewOrchestrator(primary *engine.DB, ship *Shipper, router *Router, opts OrchestratorOptions) *Orchestrator {
	return &Orchestrator{
		opts:    opts.withDefaults(primary),
		router:  router,
		obsReg:  primary.Obs(),
		primary: primary,
		ship:    ship,
		nodes:   make(map[string]*orchNode),
	}
}

// AddStandby places a standby under management and connects it. dir must be
// the replica's directory — the orchestrator needs it to wipe and reseed
// the node if a promotion ever strands it.
func (o *Orchestrator) AddStandby(name, dir string, rep *Replica) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := &orchNode{name: name, dir: dir, rep: rep}
	o.nodes[name] = n
	if o.router != nil {
		o.router.AddStandby(name, rep)
	}
	o.connectLocked(n)
}

// RemoveStandby takes a standby out of management (its session is ended,
// its router registration dropped) and returns it to the caller.
func (o *Orchestrator) RemoveStandby(name string) *Replica {
	o.mu.Lock()
	n, ok := o.nodes[name]
	if !ok {
		o.mu.Unlock()
		return nil
	}
	delete(o.nodes, name)
	if o.router != nil {
		o.router.RemoveStandby(name)
	}
	sess := n.sess
	n.sess = nil
	o.mu.Unlock()
	if sess != nil {
		sess.stop()
	}
	return n.rep
}

// Primary returns the engine currently acting as primary.
func (o *Orchestrator) Primary() *engine.DB {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.primary
}

// Shipper returns the shipper currently serving the tree — the caller's
// original one, or the orchestrator's own after a failover. Operators use
// it for live subscriber status; crash harnesses close it when they kill a
// primary, because a dead process ships nothing even while its log files
// remain readable.
func (o *Orchestrator) Shipper() *Shipper {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ship
}

// Standby returns a managed standby by name (nil if unknown).
func (o *Orchestrator) Standby(name string) *Replica {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n, ok := o.nodes[name]; ok {
		return n.rep
	}
	return nil
}

// Standbys returns the managed standby names, sorted.
func (o *Orchestrator) Standbys() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.nodes))
	for name := range o.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Timeline returns the current primary's lineage.
func (o *Orchestrator) Timeline() (wal.TimelineID, wal.TimelineHistory) {
	return o.Primary().Timeline()
}

// Events returns a copy of the decision log.
func (o *Orchestrator) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

func (o *Orchestrator) eventLocked(kind, node, format string, args ...any) {
	e := Event{At: o.opts.Clock.Now(), Kind: kind, Node: node, Detail: fmt.Sprintf(format, args...)}
	o.events = append(o.events, e)
	o.obsReg.Counter("repl_orchestrator_events_total",
		"orchestration decisions by kind (promote, reseed, session-down, ...)",
		obs.L("kind", kind)).Inc()
	o.opts.Logf("orchestrator: %s", e)
}

// Tick runs one decision round: reap dead sessions, probe the primary
// (failing over once it has been unhealthy for FailAfter), reconnect
// healthy survivors, and reseed orphans. Safe to call concurrently with
// itself and every accessor; tests drive it directly under a virtual clock.
func (o *Orchestrator) Tick() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.reapLocked()
	if !o.checkPrimaryLocked() {
		return // failover held for quorum: sessions stay down until it clears
	}
	o.ensureLocked()
}

// Run ticks every HealthEvery until stop closes. The wait rides
// clock.After, so a virtual clock's Advance drives the cadence.
func (o *Orchestrator) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-clock.After(o.opts.Clock, o.opts.HealthEvery):
			o.Tick()
		}
	}
}

// Close ends every session the orchestrator owns (and the post-failover
// shipper it created, if any). Engines and replicas stay open — the caller
// owns them.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	var sessions []*orchSession
	for _, n := range o.nodes {
		if n.sess != nil {
			sessions = append(sessions, n.sess)
			n.sess = nil
		}
	}
	ship, own := o.ship, o.ownShip
	o.mu.Unlock()
	for _, s := range sessions {
		s.stop()
	}
	if own {
		ship.Close()
	}
}

// reapLocked collects sessions whose Run goroutine has returned and
// classifies the failure: a timeline divergence or retention rejection
// marks the node orphaned (resubscribing is provably futile); anything
// else — clean close, upstream promotion, transport error — leaves the
// node down for ensureLocked to reconnect.
func (o *Orchestrator) reapLocked() {
	for _, n := range o.nodes {
		if n.sess == nil {
			continue
		}
		select {
		case err := <-n.sess.runDone:
			n.sess.up.Close()
			n.sess.down.Close()
			<-n.sess.serveDone
			n.sess = nil
			n.lastErr = err
			switch {
			case err == nil || errors.Is(err, ErrClosed):
				// Clean end; reconnect next.
			case errors.Is(err, ErrUpstreamPromoted):
				o.eventLocked("repoint", n.name, "upstream promoted: %v", err)
			case errors.Is(err, ErrTimelineDiverged), errors.Is(err, ErrSubscriptionRejected):
				n.orphaned = true
				o.eventLocked("orphan", n.name, "%v", err)
			default:
				o.eventLocked("session-down", n.name, "%v", err)
			}
		default:
		}
	}
}

// checkPrimaryLocked probes the primary — dead once its engine reports
// closed — and fails over once it has been unhealthy for FailAfter. Returns
// false when a failover is due but held for quorum — the caller then skips
// reconnects, because there is no live shipper worth connecting to.
func (o *Orchestrator) checkPrimaryLocked() bool {
	if !o.primary.Closed() {
		o.unhealthySince = time.Time{}
		return true
	}
	now := o.opts.Clock.Now()
	if o.unhealthySince.IsZero() {
		o.unhealthySince = now
		o.eventLocked("primary-lost", "", "probe failed: engine is closed")
	}
	if now.Sub(o.unhealthySince) < o.opts.FailAfter {
		return true // inside the grace; transient probes recover here
	}
	return o.failoverLocked()
}

// failoverLocked promotes the best-positioned live standby and re-points
// the world at it. Returns false when held for quorum.
func (o *Orchestrator) failoverLocked() bool {
	// End every session first: Promote requires the stream to have ended,
	// and survivors must resubscribe against the promoted node anyway.
	// Closing the old shipper fences all of them at once; draining the Run
	// goroutines releases each replica's run lock.
	o.ship.Close()
	for _, n := range o.nodes {
		if n.sess != nil {
			n.sess.up.Close()
			n.sess.down.Close()
			<-n.sess.serveDone
			n.lastErr = <-n.sess.runDone
			n.sess = nil
		}
	}

	// Candidates: live, non-orphaned standbys. Best = highest locally
	// durable log end — it loses the fewest acknowledged commits; every
	// byte it holds is upstream history, so nothing acknowledged at or
	// below its end is lost at all.
	var candidates []*orchNode
	for _, n := range o.nodes {
		if !n.orphaned {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) < o.opts.PromoteQuorum {
		o.eventLocked("quorum-hold", "", "%d live standbys, quorum %d", len(candidates), o.opts.PromoteQuorum)
		return false
	}
	sort.Slice(candidates, func(i, j int) bool {
		di := candidates[i].rep.DB().Log().FlushedLSN()
		dj := candidates[j].rep.DB().Log().FlushedLSN()
		if di != dj {
			return di > dj
		}
		return candidates[i].name < candidates[j].name // deterministic tiebreak
	})
	winner := candidates[0]

	db, err := winner.rep.Promote()
	if err != nil {
		// A failed promotion (poisoned disk, sealed-checkpoint write error)
		// leaves the node unable to stream or serve: recovery owns its log
		// and the engine is no longer a standby. Only a reseed rebuilds it —
		// classify it like an orphan so the next tick both reseeds it and
		// retries failover with the next-best candidate.
		winner.orphaned = true
		o.eventLocked("orphan", winner.name, "promote failed: %v", err)
		return false
	}
	delete(o.nodes, winner.name)
	if o.router != nil {
		o.router.RemoveStandby(winner.name)
		o.router.SetPrimary(db)
	}
	o.primary = db
	o.ship = NewShipper(db, o.opts.Shipper)
	o.ownShip = true
	o.unhealthySince = time.Time{}
	tli, hist := db.Timeline()
	o.eventLocked("promote", winner.name, "now primary on %s, durable end %v",
		wal.DescribeLineage(tli, hist), db.Log().FlushedLSN())

	// Proactively classify the survivors against the new lineage: a node
	// holding bytes past the fork is an orphan *now*, not at its next
	// failed handshake — the reseed starts this tick.
	for _, n := range o.nodes {
		end := n.rep.DB().Log().NextLSN() - 1
		sub := nodeIdentityAt(n.rep.DB(), end)
		if err := checkAncestry(tli, hist, sub, end+1); err != nil {
			n.orphaned = true
			o.eventLocked("orphan", n.name, "%v", err)
		} else {
			o.eventLocked("repoint", n.name, "resubscribing at %v on the promoted node", end+1)
		}
	}
	return true
}

// ensureLocked reconnects every down node: orphans are reseeded, everything
// else resubscribes against the current shipper.
func (o *Orchestrator) ensureLocked() {
	for _, n := range o.nodes {
		if n.sess != nil {
			continue
		}
		if n.orphaned {
			if err := o.reseedLocked(n); err != nil {
				o.eventLocked("reseed-failed", n.name, "%v", err)
				continue
			}
		}
		o.connectLocked(n)
	}
}

// connectLocked starts a Serve+Run pair for n against the current shipper.
func (o *Orchestrator) connectLocked(n *orchNode) {
	up, down := Pipe()
	sess := &orchSession{up: up, down: down, serveDone: make(chan error, 1), runDone: make(chan error, 1)}
	ship, rep := o.ship, n.rep
	go func() { sess.serveDone <- ship.Serve(up) }()
	go func() { sess.runDone <- rep.Run(down) }()
	n.sess = sess
}

// reseedLocked wipes n's directory and rebuilds it from a full backup of
// the current primary, taken into a fresh temp directory that is removed
// once the image is copied; the stream then serves every byte from the
// backup checkpoint on. It is the only way back for a node whose log holds
// bytes on no surviving timeline. The node's acknowledged-but-orphaned tail
// is genuinely discarded — that is the semantics of promotion, and exactly
// what the event log records.
func (o *Orchestrator) reseedLocked(n *orchNode) error {
	tmp, err := os.MkdirTemp("", "asofdb-reseed-")
	if err != nil {
		return fmt.Errorf("reseed source: %w", err)
	}
	defer os.RemoveAll(tmp)
	man, err := backup.Full(o.primary, filepath.Join(tmp, "reseed.img"), nil)
	if err != nil {
		return fmt.Errorf("reseed source: %w", err)
	}
	// The replica subscribes at BackupLSN: check the primary still holds it
	// before the orphan's state is wiped.
	if floor, _ := o.primary.Log().Floor(); man.BackupLSN < floor {
		return fmt.Errorf("reseed source: backup at %v predates the primary's log floor %v", man.BackupLSN, floor)
	}
	if err := n.rep.Close(); err != nil {
		return fmt.Errorf("closing orphan: %w", err)
	}
	if o.router != nil {
		o.router.RemoveStandby(n.name)
	}
	// Wipe every piece of replica state, including the node's own retention
	// archive — its segments are orphan-timeline history now.
	if arch := n.rep.DB().Log().ArchiveDir(); arch != "" {
		if err := os.RemoveAll(arch); err != nil {
			return err
		}
	}
	for _, name := range []string{"data.db", "wal", control.Name} {
		if err := os.RemoveAll(filepath.Join(n.dir, name)); err != nil {
			return err
		}
	}
	if err := ReseedFromBackup(n.dir, man); err != nil {
		return err
	}
	rep, err := OpenReplica(n.dir, o.opts.Replica)
	if err != nil {
		return err
	}
	n.rep = rep
	n.orphaned = false
	n.lastErr = nil
	if o.router != nil {
		o.router.AddStandby(n.name, rep)
	}
	o.eventLocked("reseed", n.name, "rebuilt from backup at %v", man.BackupLSN)
	return nil
}

// NodeStatus is one orchestrator-managed standby's health line.
type NodeStatus struct {
	Name     string         `json:"name"`
	State    string         `json:"state"` // "streaming", "down", "orphaned"
	Applied  wal.LSN        `json:"applied"`
	Timeline wal.TimelineID `json:"timeline"`
	LastErr  string         `json:"last_err,omitempty"`
}

// Status reports every managed standby, sorted by name.
func (o *Orchestrator) Status() []NodeStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]NodeStatus, 0, len(o.nodes))
	for _, n := range o.nodes {
		st := NodeStatus{
			Name:     n.name,
			Applied:  n.rep.AppliedLSN(),
			Timeline: n.rep.Status().Timeline,
		}
		switch {
		case n.orphaned:
			st.State = "orphaned"
		case n.sess != nil:
			st.State = "streaming"
		default:
			st.State = "down"
		}
		if n.lastErr != nil {
			st.LastErr = n.lastErr.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
