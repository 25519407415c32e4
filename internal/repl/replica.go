package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asof"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/fsutil"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ReplicaOptions tunes a warm standby.
type ReplicaOptions struct {
	// Engine configures the standby engine (buffer pool, clock, retention).
	Engine engine.Options
	// CheckpointEvery is the replica's own checkpoint cadence in applied
	// log bytes (default 4 MiB): flush dirty pages, sync, persist apply
	// state — so a restart replays at most this much local log instead of
	// the whole shipped history. Replica checkpoints append nothing to the
	// log (the shipped log must stay byte-identical to the primary's).
	CheckpointEvery int64
}

// applyWorkers is the parallelism of the continuous redo loop: page
// operations are partitioned across workers by page id (per-page order is
// total within a worker; physiological redo needs nothing more).
// parallelApplyThreshold is the page-op count below which a batch is applied
// inline — fan-out costs more than it saves for tiny batches (a single
// group-commit flush is often one transaction). snapshotWait bounds how long
// a read waits for a standby to reach the position it needs (SnapshotAsOf's
// SplitLSN, the Router's default for a session token), re-checking every
// lagPoll.
const (
	applyWorkers           = 4
	parallelApplyThreshold = 16
	snapshotWait           = 10 * time.Second
	lagPoll                = time.Millisecond
)

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4 << 20
	}
	return o
}

// ErrSubscriptionRejected reports that the primary refused the stream
// (typically: the replica's resume point predates retention truncation).
// Retrying cannot succeed — the replica must be reseeded.
var ErrSubscriptionRejected = errors.New("repl: primary rejected subscription")

// ErrUpstreamPromoted reports that the standby this replica was streaming
// from has been promoted: the upstream's log forks after the promotion
// point, and the session was fenced before a single post-fork byte could
// ship. Every byte this replica holds is on the pre-fork timeline (shared
// by the old primary and the promoted node alike), so the operator decides
// deterministically: re-point the replica at the promoted node (or the old
// primary) with a fresh Run — resubscription resumes exactly at its local
// log end — or orphan it serving its applied horizon.
var ErrUpstreamPromoted = errors.New("repl: upstream standby was promoted; its log forks past the promotion point")

// Replica is a warm standby: a standby engine plus the standing redo loop
// that keeps it current from a shipped log stream. The replica's local log
// is a byte-identical copy of the primary's (same LSNs), so the entire
// as-of machinery — chain walks, time→LSN resolution, snapshot mounting —
// works against it unchanged, and point-in-time queries run on the standby
// at a bounded, observable lag instead of stealing primary CPU.
type Replica struct {
	db   *engine.DB
	opts ReplicaOptions
	dir  string

	// st is the incremental §5.2 analysis state, exact at AppliedLSN: the
	// replica never runs an analysis scan to promote, and feeds periodic
	// ATT-mark captures from it so snapshot mounting doesn't either.
	st *engine.RecoveryState

	// pending buffers stream bytes not yet framed into complete records —
	// a batch cut mid-record (the shipper never does this, but the
	// transport may) stays pending until its remainder arrives.
	pending   []byte
	pendingAt wal.LSN // LSN of pending[0]

	primaryDurable atomic.Uint64 // primary's flushed LSN, from frames
	lastCommitWC   atomic.Int64  // wallclock of last applied commit
	lastCommitLSN  atomic.Uint64
	appliedBatches atomic.Int64
	appliedBytes   atomic.Int64
	appliedRecords atomic.Int64

	lastCkptAt   wal.LSN   // applied position of the last replica checkpoint
	ackedBatches int64     // batches applied as of the last ack sent
	statusAckAt  time.Time // wall clock of the last status-carrying ack

	runMu    sync.Mutex // serializes Run sessions and Promote
	promoted atomic.Bool
	closed   atomic.Bool

	// applyPaused defers redo: batches are still framed and made durable
	// in the local log (ingest never stops), but application to pages —
	// and everything keyed to it: analysis, marks, applied LSN — waits.
	// Deferred lag shows up in Status as usual and drains on resume.
	applyPaused atomic.Bool

	// conn is the active session's connection (nil outside Run). Close
	// uses it to kick a parked Run off its Recv instead of deadlocking on
	// runMu.
	connMu sync.Mutex
	conn   Conn

	// cascade is the shipper this standby hosts over its *local* log (nil
	// until ShipLocal): the cascading-replication hop. Ingest (AppendRaw)
	// advances the local durable LSN through the same FlushNotify path the
	// primary's group commit uses, so downstream subscribers ride this
	// node's ingest boundaries exactly as a first-tier replica rides the
	// primary's flush boundaries. Promote fences it before forking the log;
	// Close closes it before the engine.
	cascadeMu sync.Mutex
	cascade   *Shipper
}

// OpenReplica opens (creating if needed) a standby in dir. A directory
// holding previously shipped state resumes from its last replica
// checkpoint: the local log is scanned forward from the checkpointed apply
// position (a torn tail — a crash mid-ingest — is truncated to the last
// valid CRC boundary first), so restart cost is bounded by the checkpoint
// cadence, not the history size.
func OpenReplica(dir string, opts ReplicaOptions) (*Replica, error) {
	opts = opts.withDefaults()
	if _, err := os.Stat(filepath.Join(dir, promotedMarker)); err == nil {
		// The fork is durable state, not an in-process condition: a
		// promoted directory's log carries local records (promotion CLRs,
		// checkpoints, new commits) at LSNs the primary has since assigned
		// to different bytes. Resubscribing would interleave primary bytes
		// after the fork and serve CRC-valid garbage.
		return nil, fmt.Errorf("repl: %s was promoted and its log has forked from the primary's; "+
			"open it with engine.Open, or delete the directory to reseed a fresh replica", dir)
	}
	eng, err := engine.OpenStandby(dir, opts.Engine)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		db:   eng,
		opts: opts,
		dir:  dir,
		st:   engine.NewRecoveryState(),
	}
	r.registerObs(eng.Obs())

	applied := wal.LSN(0)
	buf, err := os.ReadFile(r.statePath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		eng.Close()
		return nil, err
	}
	if state, ok := decodeReplicaState(buf); ok {
		applied = state.Applied
		r.st.MaxTxn = state.MaxTxn
		r.st.Seed(state.ATT)
		r.lastCommitWC.Store(state.LastCommitWC)
		r.lastCommitLSN.Store(uint64(state.LastCommitLSN))
	}

	// Catch up from the local log copy: everything at or below `applied`
	// is reflected in (or flushable from) the data file; replay the rest
	// through the parallel-apply path. A torn ingest tail (crash mid-write)
	// is cut to the last valid CRC boundary so the stream resumes exactly
	// there. A log that begins past LSN 1 (a reseeded replica: archived
	// segments, or an empty store based at the backup checkpoint) replays
	// only what it holds — the persisted apply state positions the scan.
	eng.SetAppliedLSN(applied)
	if err := r.catchUpLocal(true); err != nil {
		eng.Close()
		return nil, fmt.Errorf("repl: local catch-up: %w", err)
	}
	validEnd := eng.AppliedLSN()
	r.pendingAt = validEnd + 1
	r.lastCkptAt = validEnd
	return r, nil
}

// registerObs publishes the replica's apply progress through the standby
// engine's registry: scrape-time readers over the counters the apply loop
// already maintains, so the redo hot path pays nothing.
func (r *Replica) registerObs(reg *obs.Registry) {
	reg.CounterFunc("repl_apply_batches_total", "shipped batches ingested by this replica", r.appliedBatches.Load)
	reg.CounterFunc("repl_apply_bytes_total", "log bytes applied by this replica", r.appliedBytes.Load)
	reg.CounterFunc("repl_apply_records_total", "log records applied by this replica", r.appliedRecords.Load)
	reg.GaugeFunc("repl_lag_bytes", "primary durable log not yet applied locally", func() int64 {
		lag := int64(r.primaryDurable.Load()) - int64(r.db.AppliedLSN())
		if lag < 0 {
			lag = 0
		}
		return lag
	})
}

// DB exposes the standby engine (read-only until promotion): as-of
// snapshots, FindCommits, consistency checks all run against it.
func (r *Replica) DB() *engine.DB { return r.db }

// AppliedLSN returns the redo high-water mark.
func (r *Replica) AppliedLSN() wal.LSN { return r.db.AppliedLSN() }

// Close shuts the standby down (pages flushed, apply state persisted),
// ending any active streaming session — and any hosted cascade shipper's
// downstream sessions — first. A promoted replica's engine belongs to the
// caller and is not closed here.
func (r *Replica) Close() error {
	if r.closed.Swap(true) || r.promoted.Load() {
		return nil
	}
	if s := r.cascadeShipper(); s != nil {
		s.Close() // downstream sessions end before the local log goes away
	}
	r.connMu.Lock() // closed is set; any conn registered before or after this point gets kicked or refused
	if r.conn != nil {
		r.conn.Close() // kick Run off its Recv
	}
	r.connMu.Unlock()
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if err := r.checkpoint(); err != nil {
		return err
	}
	return r.db.Close()
}

// ShipLocal returns (creating on first call; opts are ignored after that)
// the shipper that re-ships this standby's local log to downstream
// replicas — the cascading-standby hop. The local log is a byte-identical
// copy of the upstream's, so a downstream replica of this node is
// indistinguishable from a replica of the primary: same LSNs, same chain
// walks, same as-of results, one more hop of (observable, bounded) lag.
// Fan-out trees built this way scale log distribution past the primary's
// NIC/CPU: the primary ships each byte once per first-tier standby, and
// each tier pays only for its own children.
//
// The shipper's lifecycle is owned by the replica: Promote fences it (with
// a KindPromoted frame to every downstream session) before the local log
// forks, and Close closes it before the engine shuts down.
func (r *Replica) ShipLocal(opts ShipperOptions) *Shipper {
	r.cascadeMu.Lock()
	defer r.cascadeMu.Unlock()
	if r.cascade == nil {
		r.cascade = NewShipper(r.db, opts)
	}
	return r.cascade
}

func (r *Replica) cascadeShipper() *Shipper {
	r.cascadeMu.Lock()
	defer r.cascadeMu.Unlock()
	return r.cascade
}

func (r *Replica) statePath() string { return filepath.Join(r.dir, "replica.state") }

// --- the standing redo loop ---

// Run executes one streaming session over conn: subscribe at the end of
// the local log, ingest batches, continuously apply. It returns nil when
// the session ends cleanly (connection closed, shipper stopped) and an
// error on stream corruption or apply failure. Callers reconnect and call
// Run again to resume — the subscription point is always derived from the
// local log, so sessions are idempotent at record granularity.
func (r *Replica) Run(conn Conn) error {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.promoted.Load() {
		return errors.New("repl: replica has been promoted")
	}
	if !r.db.Standby() {
		// A failed promotion cleared the standby flag with local records
		// possibly appended: the log may have forked from the primary's,
		// and streaming onto it would serve CRC-valid garbage.
		return errors.New("repl: engine is no longer a standby (failed promotion?); cannot resume streaming")
	}
	// Register the conn and check closed under one lock so a concurrent
	// Close either sees the conn (and kicks this session) or is seen here.
	r.connMu.Lock()
	if r.closed.Load() {
		r.connMu.Unlock()
		return errors.New("repl: replica is closed")
	}
	r.conn = conn
	r.connMu.Unlock()
	defer func() {
		r.connMu.Lock()
		r.conn = nil
		r.connMu.Unlock()
	}()

	// Drop any cross-session parse remainder: the new subscription starts
	// at the last complete record boundary.
	r.pending = r.pending[:0]
	r.pendingAt = r.db.Log().NextLSN()

	// The subscribe frame presents this node's effective identity — the
	// timeline owning the last byte it actually holds plus the history
	// below it — which is what the server's ancestry check admits or
	// refuses mechanically.
	sub := nodeIdentityAt(r.db, r.pendingAt-1)
	if err := conn.Send(&Frame{Kind: KindSubscribe, From: r.pendingAt,
		Payload: appendTimelineInfo(nil, sub)}); err != nil {
		return err
	}
	hello, err := conn.Recv()
	if err != nil {
		return err
	}
	switch hello.Kind {
	case KindError:
		if hello.From == errClassTimeline {
			return &timelineRefusal{msg: fmt.Sprintf("repl: primary refused subscription: %s", hello.Payload)}
		}
		return fmt.Errorf("%w: %s", ErrSubscriptionRejected, hello.Payload)
	case KindPromoted:
		// The promotion fence can race the subscribe handshake; surface the
		// same typed error as mid-stream so callers don't retry forever.
		return r.upstreamPromoted(hello)
	case KindHello:
	default:
		return fmt.Errorf("repl: expected hello, got %v", hello.Kind)
	}
	if hello.From != r.pendingAt {
		return fmt.Errorf("repl: primary would stream from %v, want %v", hello.From, r.pendingAt)
	}
	info, err := decodeBootInfo(hello.Payload)
	if err != nil {
		return err
	}
	r.primaryDurable.Store(uint64(hello.Durable))
	if !r.db.Bootstrapped() {
		if err := r.db.InitStandbyBoot(info.Roots, info.CreatedAt); err != nil {
			return err
		}
	}
	if info.Lineage.TLI != 0 {
		// Defense in depth: verify the admission the server just granted,
		// then adopt its lineage — every byte ingested on this session is,
		// by construction, a byte of the server's history, so the server's
		// identity is now this node's identity for all bytes it will hold.
		if err := checkAncestry(info.Lineage.TLI, info.Lineage.History, sub, r.pendingAt); err != nil {
			return err
		}
		if err := r.adoptLineage(info.Lineage); err != nil {
			return err
		}
	}

	for {
		f, err := conn.Recv()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		switch f.Kind {
		case KindBatch:
			if f.Durable != wal.NilLSN {
				r.primaryDurable.Store(uint64(f.Durable))
			}
			if err := r.ingest(f.From, f.Payload); err != nil {
				return err
			}
		case KindHeartbeat:
			if f.Durable != wal.NilLSN {
				r.primaryDurable.Store(uint64(f.Durable))
			}
			// A deferred-apply backlog drains on the first idle beat after
			// ResumeApply even if no new batch ever arrives.
			if err := r.applyLocal(); err != nil {
				return err
			}
		case KindError:
			if f.From == errClassTimeline {
				// A mid-session lineage fence: the source adopted a new
				// timeline (its own upstream was promoted) and this node's
				// position is past the fork. Typed like the handshake
				// refusal so callers stop retrying and reseed.
				return &timelineRefusal{msg: fmt.Sprintf("repl: primary fenced session: %s", f.Payload)}
			}
			return fmt.Errorf("repl: primary error: %s", f.Payload)
		case KindPromoted:
			return r.upstreamPromoted(f)
		default:
			return fmt.Errorf("repl: unexpected %v frame mid-stream", f.Kind)
		}
		// Ack on heartbeats (idle stream: report promptly) and every few
		// batches under load — per-batch acks would double the scheduler
		// churn of a busy stream for no added information.
		if f.Kind == KindHeartbeat || r.appliedBatches.Load()-r.ackedBatches >= 8 {
			r.ackedBatches = r.appliedBatches.Load()
			if err := r.sendAck(conn, f.Kind == KindHeartbeat); err != nil {
				return err
			}
		}
	}
}

// upstreamPromoted maps a KindPromoted fence into the typed error, with
// the safe re-point targets spelled out for the fork geometry at hand. The
// usual case (this replica at or behind the fork) may follow either
// timeline; a replica *ahead* of the fork — possible when the mid-tier
// crashed, lost its buffered tail, and was promoted before regrowing past
// this replica — holds old-timeline bytes at LSNs the promoted node will
// reassign, so resubscribing to the promoted node would splice timelines
// into a CRC-valid but divergent local log. It must follow the old
// primary's timeline or be reseeded.
func (r *Replica) upstreamPromoted(f *Frame) error {
	fork := f.From
	newLineage := ""
	if lin, err := decodeTimelineInfo(f.Payload); err == nil && lin.TLI != 0 {
		newLineage = fmt.Sprintf("; the promoted node continues as %s", wal.DescribeLineage(lin.TLI, lin.History))
	}
	if end := r.db.Log().NextLSN() - 1; end > fork {
		return fmt.Errorf("%w (fork at %v but this replica holds %v — it is AHEAD of the promoted node's fork%s; "+
			"re-point it at a node still on its own timeline or reseed it; the promoted node will refuse it mechanically)",
			ErrUpstreamPromoted, fork, end, newLineage)
	}
	return fmt.Errorf("%w (fork begins after %v%s; resubscribe to the promoted node or the old primary, or orphan this replica)",
		ErrUpstreamPromoted, fork, newLineage)
}

// adoptLineage replaces this node's timeline identity with its upstream's
// (handshake) or a newer one observed in the stream (checkpoint records):
// from now on the node's bytes are bytes of that lineage. Persisted
// immediately — not at checkpoint cadence — because a crash between
// adopting and persisting would let the node present a stale identity and
// be admitted somewhere its new bytes don't belong.
func (r *Replica) adoptLineage(lin timelineInfo) error {
	curTLI, curHist := r.db.Timeline()
	if lin.TLI == curTLI && len(lin.History) == len(curHist) {
		same := true
		for i := range curHist {
			if curHist[i] != lin.History[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	if err := r.db.SetTimeline(lin.TLI, lin.History); err != nil {
		return err
	}
	if r.db.Bootstrapped() {
		return r.db.PersistBoot()
	}
	return nil
}

// statusAckEvery rate-limits the downstream-status piggyback on acks: the
// per-batch acks of a busy stream are the apply hot path, and the status
// is advisory monitoring nobody renders faster than this. Measured on the
// standby's injected clock (ROADMAP determinism guardrail), which is the
// system clock in production.
const statusAckEvery = 500 * time.Millisecond

// sendAck reports apply progress. A cascading hop piggybacks its own
// hosted shipper's status, so every ancestor's Status shows the subtree
// rooted here — on heartbeat acks (idle stream) and at most once per
// statusAckEvery under load, where heartbeats stop flowing because every
// select finds bytes to ship first. sendAck runs only on the Run
// goroutine, so statusAckAt needs no lock.
func (r *Replica) sendAck(conn Conn, heartbeat bool) error {
	var payload []byte
	if s := r.cascadeShipper(); s != nil && (heartbeat || r.db.Now().Sub(r.statusAckAt) >= statusAckEvery) {
		if sts := s.Status(); len(sts) > 0 {
			b, err := json.Marshal(sts)
			if err != nil {
				// The piggyback is advisory but an unmarshalable status is a
				// bug, not a condition to paper over with a silent empty tree.
				return fmt.Errorf("repl: marshal cascade status: %w", err)
			}
			payload = b
			r.statusAckAt = r.db.Now()
		}
	}
	return conn.Send(&Frame{
		Kind:      KindAck,
		From:      r.db.AppliedLSN(),
		Durable:   r.db.Log().FlushedLSN(),
		WallClock: r.lastCommitWC.Load(),
		Payload:   payload,
	})
}

// ingest folds one shipped batch into the replica: frame the complete
// records (CRCs checked; an incomplete tail stays pending), make their raw
// bytes durable in the local log (the WAL rule: log before pages), then
// apply them from there — the one apply path, catchUpLocal.
func (r *Replica) ingest(from wal.LSN, payload []byte) error {
	expect := r.pendingAt + wal.LSN(len(r.pending))
	if from != expect {
		return fmt.Errorf("repl: stream gap: batch at %v, want %v", from, expect)
	}
	r.pending = append(r.pending, payload...)
	off := 0
	for {
		_, size, ok, err := wal.NextFrame(r.pending[off:])
		if err != nil {
			return fmt.Errorf("repl: corrupt record at %v: %w", r.pendingAt+wal.LSN(off), err)
		}
		if !ok {
			break
		}
		off += size
	}
	if off == 0 {
		return nil // batch ended mid-record; wait for the remainder
	}
	// One sequential write, mirroring the primary's flush that produced
	// these bytes.
	if _, err := r.db.Log().AppendRaw(r.pending[:off]); err != nil {
		return err
	}
	r.appliedBatches.Add(1)
	r.pendingAt += wal.LSN(off)
	r.pending = append(r.pending[:0], r.pending[off:]...)
	return r.applyLocal()
}

// applyLocal applies the local log past the applied LSN and runs the
// applied-volume cadences — ATT-mark captures and replica checkpoints —
// unless apply is paused, in which case the backlog waits in the local log.
func (r *Replica) applyLocal() error {
	if r.applyPaused.Load() {
		return nil
	}
	if err := r.catchUpLocal(false); err != nil {
		return err
	}
	applied := r.db.AppliedLSN()
	r.db.NoteAnalysisMark(applied, r.st)
	if applied >= r.lastCkptAt+wal.LSN(r.opts.CheckpointEvery) {
		r.lastCkptAt = applied
		return r.checkpoint()
	}
	return nil
}

// catchUpLocal replays local log records past the applied LSN — a live
// batch just ingested, the deferred-apply backlog, a restart's tail, or
// what Promote must finish first — and is the only standby code that
// decodes and applies records. It reads the log with the engine's forward
// scan and drives each stretch's records through apply's page-id-partitioned
// worker fan-out, so a multi-hundred-MiB deferred backlog drains at
// parallel-redo bandwidth instead of one record at a time. Analysis and
// non-page bookkeeping still happen in strict log order on this goroutine
// (apply's coordinator pass), so the incremental ATT stays exact at every
// batch barrier. A log that begins past the applied position (a reseeded
// store, or apply state lost) replays what it holds.
//
// rewindTorn truncates a torn tail (a crash mid-AppendRaw) to the end of the
// intact prefix — the restart path, where the replica is quiescent; a live
// session's local log always ends on a record boundary, so the stream paths
// pass false and treat a tear as corruption.
func (r *Replica) catchUpLocal(rewindTorn bool) error {
	log := r.db.Log()
	end, err := log.ScanBatches(r.db.AppliedLSN()+1, func(recs []*wal.Record) (bool, error) {
		if err := r.apply(recs); err != nil {
			return false, err
		}
		last := recs[len(recs)-1]
		applied := last.LSN + wal.LSN(last.ApproxSize()) - 1
		r.db.SetAppliedLSN(applied)
		r.appliedBytes.Add(int64(applied + 1 - recs[0].LSN))
		r.appliedRecords.Add(int64(len(recs)))
		return true, nil
	})
	if err != nil {
		return err
	}
	if logEnd := log.NextLSN() - 1; end < logEnd {
		if !rewindTorn {
			return fmt.Errorf("repl: local log is torn at %v (it ends at %v)", end+1, logEnd)
		}
		return log.Rewind(end)
	}
	return nil
}

// PauseApply defers redo (cf. PostgreSQL's recovery_min_apply_delay, taken
// to manual control): ingestion and local durability continue, pages stop
// advancing. As-of queries keep working against the applied horizon — the
// §1 recover-the-past scenario doesn't need the newest state — and lag is
// reported as usual. Used operationally to hold a standby at a known-good
// point while investigating an application error, and by the 1-core
// benchmark harness to model a standby whose apply CPU lives on separate
// hardware.
func (r *Replica) PauseApply() { r.applyPaused.Store(true) }

// ResumeApply re-enables redo; the backlog drains on the next frame (a
// heartbeat at the latest).
func (r *Replica) ResumeApply() { r.applyPaused.Store(false) }

// apply runs one batch of records through analysis and redo. Analysis and
// non-page bookkeeping happen in log order on the coordinator; page
// operations are partitioned by page id across workers (Wu et al.: redo
// parallelizes cleanly when partitioned — physiological redo touches
// exactly one page per record, so per-page order is the only order that
// matters, and partitioning preserves it). The batch is a barrier: the
// applied LSN only advances once every worker drains.
func (r *Replica) apply(recs []*wal.Record) error {
	var pageOps []*wal.Record
	for _, rec := range recs {
		r.observe(rec)
		if rec.IsPageOp() && rec.PageID != wal.NoPage {
			pageOps = append(pageOps, rec)
		}
	}
	if len(pageOps) < parallelApplyThreshold {
		for _, rec := range pageOps {
			if err := r.db.RedoRecord(rec); err != nil {
				return err
			}
		}
		return nil
	}

	parts := make([][]*wal.Record, applyWorkers)
	for _, rec := range pageOps {
		w := int((uint64(rec.PageID) * 0x9E3779B97F4A7C15) >> 32 % applyWorkers)
		parts[w] = append(parts[w], rec)
	}
	var wg sync.WaitGroup
	errs := make([]error, applyWorkers)
	for w := range parts {
		if len(parts[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, rec := range parts[w] {
				if err := r.db.RedoRecord(rec); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observe folds one record into the incremental analysis state and the
// standby's time/checkpoint indexes.
func (r *Replica) observe(rec *wal.Record) {
	r.st.Observe(rec)
	switch rec.Type {
	case wal.TypeCommit:
		// Reseed the sparse time→LSN index exactly as the primary's Append
		// path did: same commits, same order, same cadence rule — so
		// ResolveTime on the standby narrows to the same windows.
		r.db.Log().ObserveCommit(rec.WallClock, rec.LSN)
		r.lastCommitWC.Store(rec.WallClock)
		r.lastCommitLSN.Store(uint64(rec.LSN))
	case wal.TypeCheckpointEnd:
		if data, err := wal.DecodeCheckpoint(rec.Extra); err == nil {
			r.db.NoteCheckpoint(engine.CkptMark{
				WallClock: rec.WallClock,
				Begin:     data.BeginLSN,
				End:       rec.LSN,
			})
			// Adopt promotions carried in the stream itself — monotonically,
			// so replaying pre-fork checkpoints during catch-up can never
			// regress a lineage the handshake already installed.
			if cur, _ := r.db.Timeline(); data.TLI > cur {
				_ = r.adoptLineage(timelineInfo{TLI: data.TLI, History: data.History})
			}
		}
	}
}

// checkpoint is the replica's own checkpoint: flush dirty pages, sync,
// persist the boot page and the apply state — no log records, so the
// shipped log stays byte-identical to the primary's. Restart replays only
// the local log past the persisted apply position.
func (r *Replica) checkpoint() error {
	if err := r.db.FlushStandby(); err != nil {
		return err
	}
	return writeReplicaState(r.statePath(), replicaState{
		Applied:       r.db.AppliedLSN(),
		MaxTxn:        r.st.MaxTxn,
		ATT:           r.st.Inflight(),
		LastCommitWC:  r.lastCommitWC.Load(),
		LastCommitLSN: wal.LSN(r.lastCommitLSN.Load()),
	})
}

// --- queries on the standby ---

// SnapshotAsOf mounts an as-of snapshot on the standby, waiting (bounded
// by snapshotWait) for the apply loop to pass the resolved SplitLSN when
// the request races ahead of replication.
func (r *Replica) SnapshotAsOf(at time.Time) (*asof.Snapshot, error) {
	// Deadline on the injected clock, poll pacing via SleepFor: under a
	// virtual clock the wait expires at an exact virtual instant (tests
	// advance the clock) while the poll itself keeps making real-time
	// progress instead of deadlocking on frozen time.
	ck := r.db.Clock()
	deadline := ck.Now().Add(snapshotWait)
	for {
		s, err := asof.CreateSnapshot(r.db, at, nil)
		if err == nil || !errors.Is(err, asof.ErrReplicaLagging) {
			return s, err
		}
		if ck.Now().After(deadline) {
			return nil, err
		}
		clock.SleepFor(ck, lagPoll)
	}
}

// Status is the replica-side lag report.
type ReplicaStatus struct {
	Applied        wal.LSN       `json:"applied"`
	LocalDurable   wal.LSN       `json:"local_durable"`
	PrimaryDurable wal.LSN       `json:"primary_durable"`
	LagBytes       int64         `json:"lag_bytes"`
	LastCommitAt   time.Time     `json:"last_commit_at"`
	LagTime        time.Duration `json:"lag_time"`
	Batches        int64         `json:"batches"`
	Bytes          int64         `json:"bytes"`
	Records        int64         `json:"records"`
	// Timeline is the effective identity of the replica's log end — the
	// timeline owning the last byte actually held, which is what the node
	// would present if it resubscribed right now.
	Timeline wal.TimelineID `json:"timeline,omitempty"`
}

// Status reports the replica's apply progress and observed lag. LagTime is
// measured on the standby's clock against the last applied commit — only
// meaningful while the primary is committing (an idle primary's standby
// shows growing LagTime but zero LagBytes).
func (r *Replica) Status() ReplicaStatus {
	st := ReplicaStatus{
		Applied:        r.db.AppliedLSN(),
		LocalDurable:   r.db.Log().FlushedLSN(),
		PrimaryDurable: wal.LSN(r.primaryDurable.Load()),
		Batches:        r.appliedBatches.Load(),
		Bytes:          r.appliedBytes.Load(),
		Records:        r.appliedRecords.Load(),
	}
	st.Timeline = nodeIdentityAt(r.db, r.db.Log().NextLSN()-1).TLI
	if lag := int64(st.PrimaryDurable) - int64(st.Applied); lag > 0 {
		st.LagBytes = lag
	}
	if wc := r.lastCommitWC.Load(); wc != 0 {
		st.LastCommitAt = time.Unix(0, wc)
		if lag := r.db.Now().Sub(st.LastCommitAt); lag > 0 {
			st.LagTime = lag
		}
	}
	return st
}

// Promote completes recovery and opens the replica read-write: redo first
// repeats history through the end of the local log (a deferred backlog or a
// batch not yet applied, paused or not), then the transactions in flight at
// the promotion point (known exactly from the incremental analysis state —
// no analysis scan) are rolled back with CLR-generating logical undo, a
// checkpoint seals the log, and the engine drops its standby restrictions.
// The stream session must have ended (close the Conn; Run returns) before
// calling Promote. After promotion the replica's log forks from the
// primary's: it accepts local commits.
func (r *Replica) Promote() (*engine.DB, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.promoted.Load() {
		return r.db, nil
	}
	if err := r.catchUpLocal(false); err != nil {
		return nil, fmt.Errorf("repl: promote redo: %w", err)
	}
	// Fence the cascade before the log forks: downstream sessions are told
	// the promotion point (KindPromoted) and closeWith waits for every
	// stream loop to exit, so no child can ever receive a post-fork byte —
	// everything a child holds afterwards is on the shared pre-fork
	// timeline, which is what makes re-pointing it at the promoted node (a
	// fresh Shipper over the returned engine) or back at the old primary an
	// exact, deterministic resubscription.
	if s := r.cascadeShipper(); s != nil {
		// The fence carries the identity this node is about to assume, so a
		// fenced child's error can tell the operator exactly where to
		// re-point it. Computed here — before db.Promote bumps the boot
		// block — from the same fork LSN the fence announces.
		fork := r.db.Log().NextLSN() - 1
		curTLI, curHist := r.db.Timeline()
		next := timelineInfo{
			TLI:     curTLI + 1,
			History: append(curHist.Clone(), wal.TimelineFork{TLI: curTLI, End: fork}),
		}
		s.closeWith(&Frame{Kind: KindPromoted, From: fork, Payload: appendTimelineInfo(nil, next)})
	}
	r.db.EnsureTxnIDAfter(r.st.MaxTxn)
	if err := r.db.Promote(r.st.Inflight()); err != nil {
		return nil, err
	}
	r.promoted.Store(true)
	// The standby apply state is meaningless for a primary; recovery now
	// owns the log. The marker makes the fork durable: OpenReplica refuses
	// this directory from now on.
	_ = os.Remove(r.statePath())
	_ = os.WriteFile(filepath.Join(r.dir, promotedMarker),
		[]byte("this database was promoted from a log-shipping standby; its log has forked from the primary's\n"), 0o644)
	return r.db, nil
}

// promotedMarker is the file Promote leaves so the fork survives restarts.
const promotedMarker = "promoted.fork"

// --- persisted apply state (replica.state) ---

// replicaState is the replica checkpoint payload: the apply position, the
// analysis state at it, and the last-commit observation. CRC-guarded; a
// corrupt or missing file degrades to a full local-log rescan.
type replicaState struct {
	Applied       wal.LSN
	MaxTxn        uint64
	LastCommitWC  int64
	LastCommitLSN wal.LSN
	ATT           []wal.ATTEntry
}

const replicaStateMagic = "ASOFREPL\x01"

func writeReplicaState(path string, st replicaState) error {
	return fsutil.AtomicWriteFile(path, encodeReplicaState(st), false)
}

func encodeReplicaState(st replicaState) []byte {
	buf := make([]byte, 0, 64+24*len(st.ATT))
	buf = append(buf, replicaStateMagic...)
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(st.Applied))
	put(st.MaxTxn)
	put(uint64(st.LastCommitWC))
	put(uint64(st.LastCommitLSN))
	put(uint64(len(st.ATT)))
	for _, e := range st.ATT {
		put(e.TxnID)
		put(uint64(e.LastLSN))
		put(uint64(e.BeginLSN))
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(crc32.ChecksumIEEE(buf)))
	return append(buf, tmp[:4]...)
}

// decodeReplicaState parses a replica.state file; ok is false when it is
// missing or unreadable (torn, corrupt, or inconsistent), which means a full
// rescan.
func decodeReplicaState(buf []byte) (st replicaState, ok bool) {
	n := len(replicaStateMagic)
	if len(buf) < n+44 || string(buf[:n]) != replicaStateMagic {
		return st, false
	}
	body, crc := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return st, false
	}
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }
	st.Applied = wal.LSN(get(n))
	st.MaxTxn = get(n + 8)
	st.LastCommitWC = int64(get(n + 16))
	st.LastCommitLSN = wal.LSN(get(n + 24))
	// Bound the count before multiplying: a CRC-valid file with a huge count
	// would wrap 24*cnt past the length check.
	cnt := get(n + 32)
	if cnt > uint64(len(body)-n-40)/24 || len(body) != n+40+24*int(cnt) {
		return replicaState{}, false
	}
	for i := 0; i < int(cnt); i++ {
		off := n + 40 + 24*i
		st.ATT = append(st.ATT, wal.ATTEntry{
			TxnID:    get(off),
			LastLSN:  wal.LSN(get(off + 8)),
			BeginLSN: wal.LSN(get(off + 16)),
		})
	}
	return st, true
}
