package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/tpcc"
)

// Op counts are given per second of --seconds and frozen: they were tuned
// once so that the measured phase takes about --seconds on the reference
// box (2 vCPU) and never change with the code under test.

// --- oltp_tpcc ---

// oltpTPCC: op = one TPC-C transaction, slice = 250 ops. The pool holds
// about 1/40 of the database by the end of the run, so it misses, evicts and
// writes back; checkpoints every 1 MiB of log and 5 virtual minutes of
// retention on 8 MiB segments make dozens of checkpoint and retention cycles
// complete inside the run.
type oltpTPCC struct{}

const (
	oltpWarmupPerS = 1250
	oltpOpsPerS    = 6250
	oltpSliceOps   = 250
)

func (w *oltpTPCC) setup(r *rig) error {
	db, err := r.open(filepath.Join(r.dir, "db"), engine.Options{
		BufferFrames:    512,
		CheckpointEvery: 1 * mib,
		Retention:       5 * time.Minute,
		LogSegmentBytes: 8 * mib,
	})
	if err != nil {
		return err
	}
	r.db = db
	if err := tpcc.Load(db, r.tcfg); err != nil {
		return err
	}
	return r.runTxns(r.cfg.scaled(oltpWarmupPerS, oltpSliceOps))
}

func (w *oltpTPCC) measure(r *rig) error {
	slices := r.cfg.scaled(oltpOpsPerS, oltpSliceOps) / oltpSliceOps
	for i := 0; i < slices; i++ {
		r.slice(oltpSliceOps, func() {
			r.attempted += oltpSliceOps
			r.failed += r.measuredTxns(oltpSliceOps)
		})
	}
	return nil
}

// verify: the engine's own structural check plus two TPC-C consistency
// conditions and the harness's ledger of committed NewOrders.
func (w *oltpTPCC) verify(r *rig) error {
	if _, err := r.db.CheckConsistency(); err != nil {
		r.fail("CheckConsistency: %v", err)
	}
	return r.checkTPCC(r.db, true)
}

// checkTPCC checks W_YTD = ΣD_YTD per warehouse and, per district,
// D_NEXT_O_ID − 1 = max(O_ID) = NewOrders the harness saw commit. scanOrders
// false skips the max(O_ID) scan (crash_recovery runs this per op).
func (r *rig) checkTPCC(db *engine.DB, scanOrders bool) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	for wh := 1; wh <= warehouses; wh++ {
		wr, ok, err := tx.Get(tpcc.TableWarehouse, row.Row{row.Int64(int64(wh))})
		if err != nil || !ok {
			return fmt.Errorf("oracle: warehouse %d: ok=%v err=%v", wh, ok, err)
		}
		sum := 0.0
		for d := 1; d <= districts; d++ {
			dr, ok, err := tx.Get(tpcc.TableDistrict, row.Row{row.Int64(int64(wh)), row.Int64(int64(d))})
			if err != nil || !ok {
				return fmt.Errorf("oracle: district %d/%d: ok=%v err=%v", wh, d, ok, err)
			}
			sum += dr[4].Float
			next := int(dr[5].Int)
			if want := r.committed[[2]int{wh, d}] + 1; next != want {
				r.fail("district %d/%d: d_next_o_id=%d, ledger says %d", wh, d, next, want)
			}
			if !scanOrders {
				continue
			}
			maxO := 0
			from := row.Row{row.Int64(int64(wh)), row.Int64(int64(d))}
			to := row.Row{row.Int64(int64(wh)), row.Int64(int64(d + 1))}
			if err := tx.Scan(tpcc.TableOrders, from, to, func(o row.Row) bool {
				maxO = int(o[2].Int)
				return true
			}); err != nil {
				return err
			}
			if maxO != next-1 {
				r.fail("district %d/%d: max(o_id)=%d, d_next_o_id-1=%d", wh, d, maxO, next-1)
			}
		}
		if ytd := wr[7].Float; math.Abs(ytd-sum) > 1e-6*math.Max(1, math.Abs(ytd)) {
			r.fail("warehouse %d: w_ytd=%.2f, sum(d_ytd)=%.2f", wh, ytd, sum)
		}
	}
	return nil
}

// --- asof_rewind ---

// asofRewind: set-up builds a history of virtual time and records, at each
// sweep instant, the live StockLevel answers of all 20 districts. op = cold
// log cache → mount a snapshot at end−m → the 20 queries cold → the same 20
// warm → close; slice = one sweep over m ∈ {1, 3, 10, 25} virtual minutes.
type asofRewind struct {
	targets [4]time.Time
	live    [4][]int
}

const (
	// rewindTick: this workload advances virtual time 450 ms per transaction,
	// not 150 ms, so that 25 virtual minutes are 3.3 k transactions. At 150 ms
	// the 25-minute session alone takes 1 s on the reference box and a run
	// would hold 9 sweeps, too few for a lower decile.
	rewindTick        = 450 * time.Millisecond
	rewindHistoryPerS = 4000.0 / 12 // 4 k txns = 30 virtual minutes at --seconds 12
	rewindSlicesPerS  = 3.4
)

// sweepMinutes are the distances back, as a share of a 30-minute history.
var sweepMinutes = [4]float64{1, 3, 10, 25}

func (w *asofRewind) setup(r *rig) error {
	db, err := r.open(filepath.Join(r.dir, "db"), engine.Options{
		BufferFrames:    2048,
		CheckpointEvery: 1 * mib,
		Retention:       365 * 24 * time.Hour,
	})
	if err != nil {
		return err
	}
	r.db = db
	if err := tpcc.Load(db, r.tcfg); err != nil {
		return err
	}
	r.tick = rewindTick
	n := r.cfg.scaled(rewindHistoryPerS, 120)
	// Record instants by transaction index, furthest back first.
	done := 0
	for i := len(sweepMinutes) - 1; i >= 0; i-- {
		at := n - int(float64(n)*sweepMinutes[i]/30+0.5)
		if err := r.runTxns(at - done); err != nil {
			return err
		}
		done = at
		// Commits carry the clock reading at commit; the next one will
		// carry Now(), the previous one Now()-tick. Half a tick back lies
		// strictly between, so the as-of cut is unambiguous.
		w.targets[i] = r.vclk.Now().Add(-r.tick / 2)
		if w.live[i], err = r.liveStockLevels(allDistricts()); err != nil {
			return err
		}
	}
	if err := r.runTxns(n - done); err != nil {
		return err
	}
	s := r.tr.begin(spCheckpoint)
	err = db.Checkpoint()
	r.tr.end(s)
	return err
}

func (w *asofRewind) measure(r *rig) error {
	slices := r.cfg.scaled(rewindSlicesPerS, 2)
	pairs := allDistricts()
	for i := 0; i < slices; i++ {
		r.slice(len(sweepMinutes), func() {
			for m := range sweepMinutes {
				r.attempted++
				if !r.asofSession(m, w.targets[m], pairs, w.live[m], true, true) {
					r.failed++
				}
			}
		})
	}
	return nil
}

func (w *asofRewind) verify(r *rig) error { return nil } // every answer was checked in the op

// asofSession is one as-of session: optionally drop the log block cache,
// mount a snapshot at target, run StockLevel on pairs (cold), optionally
// again (warm), close. Every answer is compared with want, the live answers
// recorded at that instant; it reports whether all matched. curve is the
// index into the distance curve, -1 for a session that is not on it.
func (r *rig) asofSession(curve int, target time.Time, pairs [][2]int, want []int, invalidate, warm bool) bool {
	op := r.tr.begin(spSession)
	defer func() { r.tr.endArg(op, int32(curve)) }()
	model0, undo0 := r.mclk.Elapsed(), r.db.Log().UndoReads.Load()
	if invalidate {
		s := r.tr.begin(spInvalidate)
		r.db.Log().InvalidateCache()
		r.tr.end(s)
	}
	ck := r.db.CheckpointCount.Load()
	s := r.tr.begin(spMount)
	snap, err := asof.CreateSnapshot(r.db, target, r.side)
	r.tr.endArg(s, int32(r.db.CheckpointCount.Load()-ck))
	if err != nil {
		r.note("mount at %v: %v", target, err)
		return false
	}
	ok := true
	passes := []spanName{spQueryCold}
	if warm {
		passes = append(passes, spQueryWarm)
	}
	for _, pass := range passes {
		for i, p := range pairs {
			s := r.tr.begin(pass)
			got, err := tpcc.StockLevel(snap, p[0], p[1], 15)
			r.tr.end(s)
			if err != nil {
				r.note("as-of StockLevel %v: %v", p, err)
				ok = false
			} else if got != want[i] {
				r.note("as-of StockLevel %v at %v: got %d, live answer was %d", p, target, got, want[i])
				ok = false
			}
		}
	}
	st := snap.Stats()
	r.asof.pagesPrepared += st.PagesPrepared.Load()
	r.asof.recordsUndone += st.RecordsUndone.Load()
	r.asof.imageRestores += st.ImageRestores.Load()
	r.asof.imageChainHops += st.ImageChainHops.Load()
	side := int64(snap.SidePages())
	r.asof.sidePages += side
	if b := side * page.Size; b > r.sidePeak {
		r.sidePeak = b // the side file is removed at Close; count it at its largest
	}
	s = r.tr.begin(spSnapClose)
	err = snap.Close()
	r.tr.end(s)
	if err != nil {
		r.note("snapshot close: %v", err)
		ok = false
	}
	if curve >= 0 {
		c := &r.curve[curve]
		c.ops++
		c.model += r.mclk.Elapsed() - model0
		c.undoRead += r.db.Log().UndoReads.Load() - undo0
	}
	return ok
}

// --- asof_beside_writes ---

// asofBesideWrites: one goroutine alternates 100 TPC-C transactions and one
// as-of session at now − 2 virtual minutes (mount, 10 StockLevel queries,
// close) with no cache invalidation; op = slice = one round. The database
// fits the pool.
type asofBesideWrites struct {
	marks []besideMark // one per completed round, oldest first
}

type besideMark struct {
	target time.Time
	pairs  [][2]int
	live   []int
}

const (
	besideRoundTxns  = 100
	besideLagRounds  = 8         // 8 × 100 × 150 ms = 2 virtual minutes
	besideWarmPerS   = 20.0 / 12 // 20 warm-up rounds at --seconds 12, never fewer than the lag
	besideRoundsPerS = 36
	besideQueries    = 10
)

func (w *asofBesideWrites) setup(r *rig) error {
	db, err := r.open(filepath.Join(r.dir, "db"), engine.Options{BufferFrames: 8192})
	if err != nil {
		return err
	}
	r.db = db
	if err := tpcc.Load(db, r.tcfg); err != nil {
		return err
	}
	for i := r.cfg.scaled(besideWarmPerS, besideLagRounds); i > 0; i-- {
		if err := r.runTxns(besideRoundTxns); err != nil {
			return err
		}
		if err := w.mark(r); err != nil {
			return err
		}
	}
	return nil
}

// mark records, at the end of a round, the instant and the live answers the
// session besideLagRounds later will be checked against.
func (w *asofBesideWrites) mark(r *rig) error {
	m := besideMark{target: r.vclk.Now().Add(-r.tick / 2)}
	for _, i := range r.rng.Perm(warehouses * districts)[:besideQueries] {
		m.pairs = append(m.pairs, [2]int{1 + i/districts, 1 + i%districts})
	}
	var err error
	m.live, err = r.liveStockLevels(m.pairs)
	w.marks = append(w.marks, m)
	return err
}

func (w *asofBesideWrites) measure(r *rig) error {
	rounds := r.cfg.scaled(besideRoundsPerS, 3)
	for i := 0; i < rounds; i++ {
		r.slice(1, func() {
			round := r.tr.begin(spRound)
			r.attempted++
			bad := r.measuredTxns(besideRoundTxns)
			m := w.marks[len(w.marks)-besideLagRounds]
			if !r.asofSession(-1, m.target, m.pairs, m.live, false, false) || bad > 0 {
				r.failed++
			}
			r.tr.end(round)
		})
		if err := w.mark(r); err != nil { // untimed: the oracle's reads are not the workload's
			return err
		}
	}
	return nil
}

func (w *asofBesideWrites) verify(r *rig) error { return r.checkTPCC(r.db, true) }

// --- crash_recovery ---

// crashRecovery: set-up builds a crash image once: load, history, a
// checkpoint, then exactly crashTail transactions with auto-checkpointing
// off and one multi-row transaction left in flight, then Crash(), which
// discards the unflushed tail and the dirty pages. op = slice = copy the
// image (untimed) → timed Open (analysis, redo, undo, closing checkpoint)
// and a first StockLevel → untimed ledger check and close.
type crashRecovery struct {
	image    string
	ledger   []int64 // history ids of Payments acknowledged after the checkpoint
	inflight []int64 // history ids the in-flight transaction inserted
}

const (
	crashHistoryPerS = 830 // 10 k txns at --seconds 12
	crashTailPerS    = 2000.0 / 12
	crashOpsPerS     = 6.5
	inflightRows     = 50
	inflightBase     = int64(1) << 40
)

func (w *crashRecovery) setup(r *rig) error {
	w.image = filepath.Join(r.dir, "image")
	db, err := r.open(w.image, engine.Options{CheckpointEvery: 1 * mib})
	if err != nil {
		return err
	}
	r.db = db
	if err := tpcc.Load(db, r.tcfg); err != nil {
		return err
	}
	if err := r.runTxns(r.cfg.scaled(crashHistoryPerS, 100)); err != nil {
		return err
	}
	s := r.tr.begin(spCheckpoint)
	err = db.Checkpoint()
	r.tr.end(s)
	if err != nil {
		return err
	}
	// Auto-checkpointing is an Open option: reopen with the product defaults,
	// which have none, for the tail.
	if err := db.Close(); err != nil {
		return err
	}
	if db, err = r.open(w.image, engine.Options{}); err != nil {
		return err
	}
	r.db = db
	tail := r.cfg.scaled(crashTailPerS, 40)
	hid0 := r.hid
	if err := r.runTxns(tail / 2); err != nil {
		return err
	}
	// The in-flight transaction touches only history rows no TPC-C
	// transaction uses, so the single client never waits on its locks.
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	for i := int64(0); i < inflightRows; i++ {
		id := inflightBase + i
		hr := row.Row{row.Int64(id), row.Int64(1), row.Int64(1), row.Int64(1),
			row.Float64(1), row.Time(db.Now()), row.String("in-flight-at-crash")}
		if err := tx.Insert(tpcc.TableHistory, hr); err != nil {
			return err
		}
		w.inflight = append(w.inflight, id)
	}
	// Later commits force the log past the in-flight records, so recovery
	// finds them and has to undo them.
	if err := r.runTxns(tail - tail/2); err != nil {
		return err
	}
	for id := hid0 + 1; id <= r.hid; id++ {
		w.ledger = append(w.ledger, id)
	}
	db.Crash()
	r.db = nil
	return nil
}

func (w *crashRecovery) measure(r *rig) error {
	ops := r.cfg.scaled(crashOpsPerS, 2)
	for i := 0; i < ops; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("op-%d", i))
		if err := copyTree(w.image, dir); err != nil {
			return err
		}
		r.attempted++
		r.diskDir = dir // disk_mib is the recovered database, not the image beside it
		r.slice(1, func() {
			op := r.tr.begin(spRecover)
			defer r.tr.end(op)
			r.recoveries++
			s := r.tr.begin(spOpen)
			db, err := r.open(dir, engine.Options{})
			r.tr.end(s)
			if err != nil {
				r.fail("recovery open: %v", err)
				return
			}
			r.db = db
			s = r.tr.begin(spFirstQuery)
			tx, err := db.Begin()
			if err == nil {
				_, err = tpcc.StockLevel(tx, 1, 1, 15)
				tx.Rollback()
			}
			r.tr.end(s)
			if err != nil {
				r.fail("first query: %v", err)
			}
		})
		if r.db == nil {
			continue
		}
		if err := w.check(r); err != nil {
			r.fail("ledger check: %v", err)
		}
		if i == ops-1 {
			r.lastDB = r.db // the probes run on the last recovered database
		} else if err := r.db.Close(); err != nil {
			r.fail("close after recovery: %v", err)
		}
		r.db = nil
		if i < ops-1 {
			os.RemoveAll(dir)
		}
		// Collect the closed database between ops (untimed): whether the
		// collector happened to run before the next Open allocates its pool
		// otherwise decides peak RSS, which then takes one of two values.
		runtime.GC()
	}
	return nil
}

// check is the durability oracle: every acknowledged commit is readable
// after Open and the in-flight transaction left no row.
func (w *crashRecovery) check(r *rig) error {
	tx, err := r.db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	for _, id := range w.ledger {
		if _, ok, err := tx.Get(tpcc.TableHistory, row.Row{row.Int64(id)}); err != nil {
			return err
		} else if !ok {
			r.fail("acknowledged Payment %d lost by recovery", id)
		}
	}
	for _, id := range w.inflight {
		if _, ok, err := tx.Get(tpcc.TableHistory, row.Row{row.Int64(id)}); err != nil {
			return err
		} else if ok {
			r.fail("in-flight row %d survived recovery", id)
		}
	}
	return r.checkTPCC(r.db, false)
}

func (w *crashRecovery) verify(r *rig) error {
	if r.lastDB == nil {
		return nil
	}
	if _, err := r.lastDB.CheckConsistency(); err != nil {
		r.fail("CheckConsistency after recovery: %v", err)
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
