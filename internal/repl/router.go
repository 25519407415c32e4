package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asof"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Session is a client's read-your-writes session: a monotonically
// advancing LSN token threaded through its commits and routed reads.
//
// The token is the durable commit LSN of the session's last write
// (Txn.CommitLSN) joined with the split LSN of its last routed read — so a
// read routed with it can never observe state older than anything the
// session has already written *or seen* (read-your-writes + monotonic
// reads), no matter which standby serves it. The zero value is a fresh
// session with no history. Safe for concurrent use.
type Session struct {
	token atomic.Uint64
}

// Token returns the session's current routing token.
func (s *Session) Token() wal.LSN { return wal.LSN(s.token.Load()) }

// Observe folds an observed LSN into the token (monotonic max). Call it
// with Txn.CommitLSN after every commit; Router.SnapshotAsOf calls it with
// the served snapshot's split LSN automatically.
func (s *Session) Observe(lsn wal.LSN) {
	for {
		cur := s.token.Load()
		if uint64(lsn) <= cur || s.token.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// RouterOptions tunes read routing.
type RouterOptions struct {
	// SnapshotWait bounds how long Pick waits for some standby to reach the
	// session token before falling back to the primary (default 10s, the
	// wait of Replica.SnapshotAsOf), re-checking every millisecond.
	// Deadlines are measured on Clock, so session-guarantee tests assert the
	// fallback deterministically.
	SnapshotWait time.Duration
	// Clock supplies the deadline time source (default: the system clock).
	Clock clock.Clock
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.SnapshotWait <= 0 {
		o.SnapshotWait = snapshotWait
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
	return o
}

// ErrNoRoute is returned when no standby has reached the session token
// within SnapshotWait and no primary fallback is configured.
var ErrNoRoute = errors.New("repl: no standby has reached the session token and no primary fallback is configured")

// Route identifies the node a read was (or will be) served by.
type Route struct {
	// Name is the standby's registration name, or "primary".
	Name string
	// Primary marks the fallback: every standby lagged past the wait
	// budget (or none is registered), so the read runs on the primary —
	// which trivially satisfies any token.
	Primary bool
	// Replica is the chosen standby (nil on the primary route).
	Replica *Replica
	// AppliedLSN is the standby's applied position at selection, ≥ the
	// session token by construction (the primary's flushed LSN on the
	// fallback route).
	AppliedLSN wal.LSN
}

// Router routes point-in-time reads across a primary's standby fleet with
// read-your-writes and monotonic-reads session guarantees: a read carrying
// token T is only served by a standby whose AppliedLSN ≥ T — the standby's
// local log then contains every commit the session has written or
// observed, so the §5.1 split resolution cannot land below any of them.
// Among the eligible standbys the least-lagged one (highest applied LSN)
// wins; when none qualifies the router waits up to SnapshotWait for the
// fleet to catch up, then falls back to the primary. Standbys at any tier
// of a cascade qualify — a token only compares against applied LSNs, and
// LSNs are identical at every hop.
type Router struct {
	opts RouterOptions

	mu       sync.RWMutex
	primary  *engine.DB // fallback target; nil = no fallback
	standbys map[string]*Replica
}

// NewRouter creates a router. primary may be nil (no fallback: reads that
// outrun the whole fleet fail with ErrNoRoute instead).
func NewRouter(primary *engine.DB, opts RouterOptions) *Router {
	return &Router{
		opts:     opts.withDefaults(),
		primary:  primary,
		standbys: make(map[string]*Replica),
	}
}

// AddStandby registers (or replaces) a routable standby under name.
func (rt *Router) AddStandby(name string, rep *Replica) {
	rt.mu.Lock()
	rt.standbys[name] = rep
	rt.mu.Unlock()
}

// RemoveStandby deregisters a standby (promotion, decommission, or a
// too-stale node an operator pulls from rotation).
func (rt *Router) RemoveStandby(name string) {
	rt.mu.Lock()
	delete(rt.standbys, name)
	rt.mu.Unlock()
}

// SetPrimary repoints the fallback target — the failover handoff: the
// orchestrator promotes a standby, removes it from rotation, and installs
// the returned engine here. In-flight Picks see the new primary on their
// next poll iteration; session tokens stay valid because the promoted
// node's log contains every acknowledged commit ≤ the fork.
func (rt *Router) SetPrimary(db *engine.DB) {
	rt.mu.Lock()
	rt.primary = db
	rt.mu.Unlock()
}

// Primary returns the current fallback target (nil when none).
func (rt *Router) Primary() *engine.DB {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.primary
}

// best returns the registered standby with the highest applied LSN.
func (rt *Router) best() (string, *Replica, wal.LSN) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var (
		bestName string
		bestRep  *Replica
		bestLSN  wal.LSN
	)
	for name, rep := range rt.standbys {
		if lsn := rep.AppliedLSN(); bestRep == nil || lsn > bestLSN {
			bestName, bestRep, bestLSN = name, rep, lsn
		}
	}
	return bestName, bestRep, bestLSN
}

// Pick chooses the node to serve a read routed with token: the
// least-lagged standby whose AppliedLSN ≥ token, waiting up to
// SnapshotWait for one to appear, then the primary. A zero token (fresh
// session) still prefers the least-lagged standby — reads scale across the
// fleet by default and only land on the primary as a last resort.
func (rt *Router) Pick(token wal.LSN) (Route, error) {
	deadline := rt.opts.Clock.Now().Add(rt.opts.SnapshotWait)
	for {
		name, rep, applied := rt.best()
		if rep != nil && applied >= token {
			return Route{Name: name, Replica: rep, AppliedLSN: applied}, nil
		}
		// Waiting only makes sense for a *lagging* fleet, which catches up;
		// an empty fleet (none registered yet, or the last standby pulled
		// from rotation mid-failover) won't, so a configured primary serves
		// immediately instead of charging every read the full wait budget.
		primary := rt.Primary()
		if (rep == nil || rt.opts.Clock.Now().After(deadline)) && primary != nil {
			return Route{Name: "primary", Primary: true, AppliedLSN: primary.Log().FlushedLSN()}, nil
		}
		if rt.opts.Clock.Now().After(deadline) {
			return Route{}, fmt.Errorf("%w (token %v)", ErrNoRoute, token)
		}
		clock.SleepFor(rt.opts.Clock, lagPoll)
	}
}

// SnapshotAsOf mounts an as-of snapshot at `at` on the node Pick selects
// for the session's token, then folds the snapshot's split LSN back into
// the session (monotonic reads: a later read, wherever routed, can never
// resolve below this one). sess may be nil for an unconstrained read. The
// caller owns the returned snapshot.
func (rt *Router) SnapshotAsOf(sess *Session, at time.Time) (*asof.Snapshot, Route, error) {
	var token wal.LSN
	if sess != nil {
		token = sess.Token()
	}
	route, err := rt.Pick(token)
	if err != nil {
		return nil, route, err
	}
	var snap *asof.Snapshot
	if route.Primary {
		snap, err = asof.CreateSnapshot(rt.Primary(), at, nil)
	} else {
		snap, err = route.Replica.SnapshotAsOf(at)
	}
	if err != nil {
		return nil, route, err
	}
	if sess != nil {
		sess.Observe(snap.SplitLSN())
	}
	return snap, route, nil
}
