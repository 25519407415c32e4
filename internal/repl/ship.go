package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ShipperOptions tunes the primary-side log shipper.
type ShipperOptions struct {
	// HeartbeatEvery bounds how long an idle stream stays silent (default
	// 500ms): heartbeats carry the primary's durable LSN and clock so a
	// replica's lag observation never goes stale.
	HeartbeatEvery time.Duration
}

func (o ShipperOptions) withDefaults() ShipperOptions {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 500 * time.Millisecond
	}
	return o
}

const (
	// batchBytes caps one shipped batch. Batches are usually much smaller:
	// the shipper drains whatever a group-commit flush made durable, so
	// batch boundaries ride flush boundaries.
	batchBytes = 256 << 10
	// fenceGrace bounds how long closeWith waits for promotion-fence fin
	// frames to reach stalled peers, measured on the source engine's
	// injected clock so fence tests run at exact virtual times.
	fenceGrace = time.Second
)

// Shipper streams a node's WAL to subscribed replicas. It hooks the
// group-commit flush path (wal.Manager.FlushNotify): every completed flush
// wakes each subscriber's stream loop, which reads the newly durable bytes
// straight from the log file (ReadDurable — never through the random-read
// block cache, so shipping cannot evict the hot chain-walk window) and
// sends them as one framed, CRC-checked batch. Shipping therefore costs
// the primary one extra sequential read of bytes that are still warm in
// the OS page cache, and no commit-path work at all.
//
// The source need not be a primary: a standby's local log is a
// byte-identical copy of its upstream's, and its AppendRaw ingest path
// advances the durable LSN through the same FlushNotify hook a primary's
// group commit does — so a Shipper over a standby engine re-ships the
// stream one hop further down a cascade (primary → R1 → R2 → ...;
// Replica.ShipLocal). A standby source relaxes two session rules: hello
// waits for the standby to be bootstrapped (a fresh mid-tier learns its
// catalog roots from its own upstream first), and a subscription past the
// local log end waits for the log to grow back instead of declaring
// divergence — a mid-tier that crashed and lost its buffered tail will
// re-ingest exactly those bytes.
type Shipper struct {
	db   *engine.DB
	opts ShipperOptions

	mu     sync.Mutex
	nextID int
	subs   map[int]*subscriber
	// conns tracks every serving connection (including sessions still in
	// their subscribe handshake, which appear in no subscriber entry):
	// closeWith closes them all so no session can stay parked in a Recv or
	// a Send while Close waits for it.
	conns map[Conn]struct{}

	// sessions tracks live Serve calls so closeWith can wait for every
	// stream loop to exit — the promotion fence relies on no session
	// reading the log after closeWith returns.
	sessions sync.WaitGroup

	// Shipper-lifetime totals across all subscriber sessions (per-session
	// counts die with their subscriber entries; these feed the registry).
	totalBatches atomic.Int64
	totalBytes   atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
}

// subscriber is the shipper's view of one replica session.
type subscriber struct {
	id   int
	conn Conn

	shipped      atomic.Uint64 // last byte shipped
	ackedApplied atomic.Uint64 // replica's applied LSN (from acks)
	ackedDurable atomic.Uint64 // replica's locally durable log end
	lastCommitWC atomic.Int64  // commit wallclock last applied by the replica
	connectedAt  time.Time
	tli          wal.TimelineID // effective timeline at subscription
	bytesShipped atomic.Int64
	batchesSent  atomic.Int64

	// downstream is the subscriber's own cascade status (its hosted
	// shipper's subscribers), carried piggyback on its acks — each hop
	// reports its children, so the root's Status is the whole tree.
	dsMu       sync.Mutex
	downstream []SubscriberStatus
}

// SubscriberStatus is a point-in-time report for one replica — the payload
// of `asofctl repl-status`.
type SubscriberStatus struct {
	ID int `json:"id"`
	// PrimaryDurable is the primary's flushed LSN at report time; Shipped
	// the last byte sent to this replica; Applied and ReplicaDurable the
	// replica's last acked apply/durability positions.
	PrimaryDurable wal.LSN `json:"primary_durable"`
	Shipped        wal.LSN `json:"shipped"`
	Applied        wal.LSN `json:"applied"`
	ReplicaDurable wal.LSN `json:"replica_durable"`
	// LagBytes is PrimaryDurable - Applied: the log the replica still has
	// to apply before it sees the primary's newest committed state.
	LagBytes int64 `json:"lag_bytes"`
	// Retained is the lowest LSN the primary's live log physically holds
	// (its segment floor). A replica that falls below it can resubscribe
	// only if the retention archive still covers its resume point;
	// otherwise it must be reseeded from a backup. Surfaced here so
	// `asofctl repl-status` shows how much slack each replica has.
	Retained wal.LSN `json:"retained"`
	// LastCommitAt is the commit time of the last transaction the replica
	// applied; LagSeconds the primary clock's distance from it. Both are
	// zero before the replica applies its first commit. LagSeconds is only
	// reported while the replica actually trails (see Idle).
	LastCommitAt time.Time     `json:"last_commit_at"`
	LagSeconds   float64       `json:"lag_seconds"`
	Connected    time.Duration `json:"connected_seconds"`
	BytesShipped int64         `json:"bytes_shipped"`
	Batches      int64         `json:"batches"`
	// Timeline is the subscriber's effective timeline at subscription (the
	// branch of log history owning the last byte it held when it connected).
	Timeline wal.TimelineID `json:"timeline,omitempty"`
	// Idle reports a caught-up subscriber on an idle stream: everything
	// durable here has been shipped and applied, so there is no lag —
	// heartbeat clock beacons keep the acked positions fresh while no
	// commits flow, and without this flag the wall-clock distance from the
	// last applied commit would read as ever-growing "lag" on a primary
	// that simply stopped committing.
	Idle bool `json:"idle"`
	// Downstream is this replica's own cascade fan-out (the subscribers of
	// the shipper it hosts over its local log), reported hop by hop through
	// ack piggybacks — `asofctl repl-status` renders the tree.
	Downstream []SubscriberStatus `json:"downstream,omitempty"`
}

// NewShipper creates a shipper over db. One shipper serves any number of
// concurrent subscriber sessions (Serve is called per connection).
func NewShipper(db *engine.DB, opts ShipperOptions) *Shipper {
	s := &Shipper{
		db:    db,
		opts:  opts.withDefaults(),
		subs:  make(map[int]*subscriber),
		conns: make(map[Conn]struct{}),
		stop:  make(chan struct{}),
	}
	s.registerObs(db.Obs())
	return s
}

// registerObs publishes the shipper through the source engine's registry.
// Totals are scrape-time readers over the shipper's own atomics (no stream-
// loop cost); the per-subscriber lag family is a collect callback because
// its label set (subscriber ids) changes as sessions come and go. A shipper
// re-created over the same engine (or a promoted standby's new shipper on a
// registry that outlives the old one) simply replaces the callbacks.
func (s *Shipper) registerObs(r *obs.Registry) {
	r.CounterFunc("repl_ship_batches_total", "log batches shipped to subscribers", s.totalBatches.Load)
	r.CounterFunc("repl_ship_bytes_total", "log payload bytes shipped to subscribers", s.totalBytes.Load)
	r.GaugeFunc("repl_subscribers", "connected replica subscriptions", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.subs))
	})
	r.SetCollect("repl_subscriber_lag_bytes", "durable log bytes a subscriber has not yet applied", "gauge",
		func(emit func(labels []obs.Label, v float64)) {
			durable := s.db.Log().FlushedLSN()
			s.mu.Lock()
			defer s.mu.Unlock()
			for id, sub := range s.subs {
				lag := int64(durable) - int64(sub.ackedApplied.Load())
				if lag < 0 {
					lag = 0
				}
				emit([]obs.Label{obs.L("id", strconv.Itoa(id))}, float64(lag))
			}
		})
}

// Close stops all sessions and waits for their stream loops to exit.
func (s *Shipper) Close() { s.closeWith(nil) }

// closeWith ends every session — sending fin (when non-nil) to each live
// subscriber first, so children learn *why* — and waits for all Serve
// loops to return. After closeWith, no session can read the source log
// again: this is the fence Replica.Promote uses to guarantee downstream
// replicas never receive a byte of the forked (post-promotion) timeline.
func (s *Shipper) closeWith(fin *Frame) {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		s.sessions.Wait()
		return
	}
	all := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		all = append(all, c)
	}
	s.mu.Unlock()
	// The fin goes to every tracked session conn, not just registered
	// subscribers: a downstream still in its subscribe handshake (parked in
	// the bootstrap wait, say) must learn of the promotion too, or its Run
	// would surface a generic transport error and callers would retry
	// forever against the promoted node. (A status-request session that
	// races this sees one stray frame after its reply — harmless.)
	var finTo []Conn
	if fin != nil {
		finTo = all
	}
	// Send the fin concurrently and with a bounded grace: a healthy peer
	// (draining its Recv loop) gets it immediately; a stalled peer whose
	// transport is write-blocked must not be able to hang this call — it
	// loses the fin and learns of the close from its broken connection
	// instead. Racing stream sends are fine: both sides are pre-fork.
	var finWg sync.WaitGroup
	for _, c := range finTo {
		finWg.Add(1)
		go func(c Conn) {
			defer finWg.Done()
			_ = c.Send(fin)
		}(c)
	}
	finSent := make(chan struct{})
	go func() {
		finWg.Wait()
		close(finSent)
	}()
	select {
	case <-finSent:
	case <-clock.After(s.db.Clock(), fenceGrace):
	}
	close(s.stop)
	// Close every serving connection — a session parked in a handshake Recv
	// or a transport Send has no stop-channel to observe; closing its conn
	// is what unparks it (and any still-blocked fin sender above).
	for _, c := range all {
		_ = c.Close()
	}
	s.sessions.Wait()
}

// Status reports every connected subscriber.
func (s *Shipper) Status() []SubscriberStatus {
	durable := s.db.Log().FlushedLSN()
	retained := s.db.Log().SegmentFloor()
	now := s.db.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SubscriberStatus, 0, len(s.subs))
	for _, sub := range s.subs {
		st := SubscriberStatus{
			ID:             sub.id,
			PrimaryDurable: durable,
			Shipped:        wal.LSN(sub.shipped.Load()),
			Applied:        wal.LSN(sub.ackedApplied.Load()),
			ReplicaDurable: wal.LSN(sub.ackedDurable.Load()),
			Retained:       retained,
			Timeline:       sub.tli,
			Connected:      now.Sub(sub.connectedAt),
			BytesShipped:   sub.bytesShipped.Load(),
			Batches:        sub.batchesSent.Load(),
		}
		st.LagBytes = int64(st.PrimaryDurable) - int64(st.Applied)
		if st.LagBytes < 0 {
			st.LagBytes = 0
		}
		if wc := sub.lastCommitWC.Load(); wc != 0 {
			st.LastCommitAt = time.Unix(0, wc)
		}
		if st.Applied >= durable {
			// Caught up on an idle stream — or even ahead of it (a parked
			// downstream waiting for a crashed mid-tier's log to regrow):
			// the distance from the last applied commit measures how long
			// the source has been idle, not how far the replica trails.
			// Report "idle, caught up".
			st.Idle = true
		} else if !st.LastCommitAt.IsZero() {
			if lag := now.Sub(st.LastCommitAt); lag > 0 {
				st.LagSeconds = lag.Seconds()
			}
		}
		sub.dsMu.Lock()
		if len(sub.downstream) > 0 {
			st.Downstream = append([]SubscriberStatus(nil), sub.downstream...)
		}
		sub.dsMu.Unlock()
		out = append(out, st)
	}
	return out
}

// StatusJSON renders Status as JSON (the KindStatus reply payload).
func (s *Shipper) StatusJSON() ([]byte, error) {
	b, err := json.Marshal(s.Status())
	if err != nil {
		return nil, fmt.Errorf("repl: marshal status: %w", err)
	}
	return b, nil
}

// Serve runs one subscriber session over conn, blocking until the session
// ends. It expects a KindSubscribe frame, replies with KindHello (carrying
// the boot info a fresh replica needs), then streams batches as flushes
// complete, interleaving heartbeats while idle. A KindStatus request is
// answered with the shipper's full status instead of a stream.
func (s *Shipper) Serve(conn Conn) error {
	defer conn.Close()
	// Register with the session group under mu so closeWith either sees
	// this session (and waits for it) or this session sees closed.
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return errors.New("repl: shipper is closed")
	}
	s.sessions.Add(1)
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.sessions.Done()
	}()

	req, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("repl: subscribe: %w", err)
	}
	switch req.Kind {
	case KindStatus:
		payload, err := s.StatusJSON()
		if err != nil {
			// Surface through the session error path (the peer sees KindError
			// with the reason) rather than replying with a silently-empty
			// status that reads as "no subscribers".
			_ = conn.Send(&Frame{Kind: KindError, Payload: []byte(err.Error())})
			return err
		}
		return conn.Send(&Frame{Kind: KindStatus, Payload: payload})
	case KindSubscribe:
	default:
		return fmt.Errorf("repl: unexpected %v frame before subscribe", req.Kind)
	}

	// Ack reader: drains replica progress reports concurrently with the
	// stream loop. Started before any waiting so its exit (connection
	// closed) ends the session even from the pre-hello wait states — the
	// replica sends nothing between subscribe and hello, so an error here
	// is always a dead peer. Its sub is handed to the registry later.
	sub := &subscriber{conn: conn, connectedAt: s.db.Now()}
	recvErr := make(chan error, 1)
	go func() {
		for {
			f, err := conn.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			if f.Kind == KindAck {
				sub.ackedApplied.Store(uint64(f.From))
				sub.ackedDurable.Store(uint64(f.Durable))
				if f.WallClock != 0 {
					sub.lastCommitWC.Store(f.WallClock)
				}
				// A cascading replica piggybacks its own hosted shipper's
				// status on acks; an undecodable payload is dropped (status
				// is advisory, never worth ending a session over).
				if len(f.Payload) > 0 {
					var ds []SubscriberStatus
					if json.Unmarshal(f.Payload, &ds) == nil {
						sub.dsMu.Lock()
						sub.downstream = ds
						sub.dsMu.Unlock()
					}
				}
			}
		}
	}()

	// A cascading hop's hello must carry valid catalog roots; a mid-tier
	// standby learns them from its own upstream's hello, so a downstream
	// replica that connects before the mid-tier has ever streamed waits
	// here until the boot info exists — or until the peer gives up.
	if s.db.Standby() && !s.db.Bootstrapped() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for !s.db.Bootstrapped() {
			select {
			case <-tick.C:
			case err := <-recvErr:
				if errors.Is(err, ErrClosed) {
					return nil
				}
				return err
			case <-s.stop:
				return nil
			}
		}
	}

	log := s.db.Log()
	from := req.From
	if from == wal.NilLSN {
		from = 1
	}
	// Timeline admission: the subscriber's position must be an ancestor of
	// this node's lineage. This is the mechanical check that replaced the
	// PR 5 prose-only guidance — an ahead-of-fork orphan is refused here
	// with the reason and the remedy, before any floor or divergence logic
	// (those assume a shared history) can park it or mislabel it.
	subInfo, err := decodeTimelineInfo(req.Payload)
	if err != nil {
		_ = conn.Send(&Frame{Kind: KindError, Payload: []byte(err.Error())})
		return fmt.Errorf("repl: subscribe: %w", err)
	}
	admitTLI, admitHist := s.db.Timeline()
	if err := checkAncestry(admitTLI, admitHist, subInfo, from); err != nil {
		_ = conn.Send(&Frame{Kind: KindError, From: errClassTimeline, Payload: []byte(err.Error())})
		return fmt.Errorf("repl: refusing subscription at %v: %w", from, err)
	}
	sub.tli = subInfo.TLI
	// A subscription below the live store's floor (retention dropped those
	// segments) is served from the retention archive the log store keeps
	// beside its live segments, as one byte-contiguous log that also
	// bridges the record straddling the archive/live boundary. Only when the
	// bytes are gone (no archive, pruned, or a damaged archive, which the
	// error names) is the replica told to reseed.
	if floor, ferr := log.Floor(); from < floor {
		why := "no archive holds it"
		if ferr != nil {
			why = ferr.Error()
		}
		_ = conn.Send(&Frame{Kind: KindError,
			Payload: []byte(fmt.Sprintf("subscription at %v predates the retained log (floor %v; %s); reseed the replica", from, floor, why))})
		return fmt.Errorf("repl: subscription at %v predates retained log floor %v: %s", from, floor, why)
	}
	if next := log.NextLSN(); from > next && !s.db.Standby() {
		// On a primary, a resume point past the log end means the replica
		// holds bytes this log never wrote: divergence. On a standby source
		// it means the opposite — the mid-tier crashed and lost its buffered
		// tail, and will re-ingest exactly the bytes the downstream already
		// has (both copy the same upstream log) — so the session simply
		// parks in the stream loop below until the log grows back to `from`.
		_ = conn.Send(&Frame{Kind: KindError,
			Payload: []byte(fmt.Sprintf("subscription at %v is past the log end %v; replica log diverged", from, next))})
		return fmt.Errorf("repl: subscription at %v past log end %v", from, next)
	}

	sub.shipped.Store(uint64(from - 1))
	s.mu.Lock()
	s.nextID++
	sub.id = s.nextID
	s.subs[sub.id] = sub
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub.id)
		s.mu.Unlock()
	}()

	hello := &Frame{
		Kind:    KindHello,
		From:    from,
		Durable: log.FlushedLSN(),
		Payload: encodeBootInfo(bootInfo{
			Roots:     s.db.Roots(),
			CreatedAt: s.db.CreatedAt().UnixNano(),
			TruncLSN:  log.TruncationPoint(),
			Lineage:   timelineInfo{TLI: admitTLI, History: admitHist},
		}),
	}
	if err := conn.Send(hello); err != nil {
		return err
	}

	notify := log.FlushNotify()
	defer log.FlushUnnotify(notify)
	buf := make([]byte, batchBytes)
	off := int64(from - 1)
	heartbeat := time.NewTimer(s.opts.HeartbeatEvery)
	defer heartbeat.Stop()
	for {
		// Retention without an archive can drop bytes a slow session has not
		// shipped yet: the read then fails, and never ships zeros.
		n, err := log.ReadDurable(buf, off)
		if err != nil {
			return err
		}
		if n > 0 {
			// Mid-session lineage fence: a standby source adopts a new
			// timeline when its own upstream is promoted, and a session that
			// was parked ahead of this node's log end (waiting for it to
			// regrow) would otherwise have new-timeline bytes spliced after
			// its old-timeline tail — CRC-valid garbage. Before shipping a
			// byte after any lineage change, re-admit the subscriber at its
			// current position: every byte at or below off came from this
			// very log under the old lineage, so its effective identity is
			// the old lineage truncated at off.
			if curTLI, curHist := s.db.Timeline(); curTLI != admitTLI {
				et, eh := admitHist.TruncateAt(admitTLI, wal.LSN(off))
				if err := checkAncestry(curTLI, curHist, timelineInfo{TLI: et, History: eh}, wal.LSN(off)+1); err != nil {
					_ = conn.Send(&Frame{Kind: KindError, From: errClassTimeline, Payload: []byte(err.Error())})
					return fmt.Errorf("repl: fencing subscriber at %v after timeline change: %w", wal.LSN(off)+1, err)
				}
				admitTLI, admitHist = curTLI, curHist
			}
			batch := &Frame{
				Kind:      KindBatch,
				From:      wal.LSN(off + 1),
				Durable:   log.FlushedLSN(),
				WallClock: s.db.Now().UnixNano(),
				Payload:   append([]byte(nil), buf[:n]...),
			}
			if err := conn.Send(batch); err != nil {
				return err
			}
			off += int64(n)
			sub.shipped.Store(uint64(off))
			sub.bytesShipped.Add(int64(n))
			sub.batchesSent.Add(1)
			s.totalBytes.Add(int64(n))
			s.totalBatches.Add(1)
			continue // drain: more may already be durable
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(s.opts.HeartbeatEvery)
		select {
		case <-notify:
		case <-heartbeat.C:
			hb := &Frame{Kind: KindHeartbeat, Durable: log.FlushedLSN(), WallClock: s.db.Now().UnixNano()}
			if err := conn.Send(hb); err != nil {
				return err
			}
		case err := <-recvErr:
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		case <-s.stop:
			return nil
		}
	}
}
