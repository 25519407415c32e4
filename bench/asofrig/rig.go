package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/storage/buffer"
	"repro/internal/storage/media"
	"repro/internal/tpcc"
	"repro/internal/txn"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// Fixed configuration shared by all workloads (bench/README.md explains the
// choices): TPC-C at W=2, one closed-loop client, virtual time advancing
// 150 ms per transaction, SSD-profile devices on one media clock.
const (
	warehouses = 2
	districts  = 10
	customers  = 300
	items      = 2000
	txnTick    = 150 * time.Millisecond // virtual time per transaction, unless a workload says otherwise
	clients    = 1
	mib        = 1 << 20
)

// config is one invocation's input. Seconds sizes the run: work is fixed in
// operations, as a deterministic function of Seconds (about that many
// seconds of measured phase on the reference 2-vCPU box), never cut off by
// a timer, so counted metrics repeat exactly per seed.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	OutDir   string // results and traces
	TmpDir   string // temp databases
}

// scaled returns perSecond × Seconds rounded, but at least min.
func (c config) scaled(perSecond float64, min int) int {
	n := int(perSecond*c.Seconds + 0.5)
	if n < min {
		n = min
	}
	return n
}

type workload interface {
	// setup builds the database the measured phase runs against; its wall
	// time is setup_s. CPU-bound and fsync-free.
	setup(r *rig) error
	// measure runs the fixed-work measured phase as r.slice calls.
	measure(r *rig) error
	// verify checks the end state against the oracle (untimed).
	verify(r *rig) error
}

type workloadDef struct {
	name, why string
	make      func() workload
}

var workloads = []workloadDef{
	{"oltp_tpcc", "TPC-C on a 512-frame pool, 1/40 of the database: what the extended logging costs normal work; bypasses asof and sidefile", func() workload { return &oltpTPCC{} }},
	{"asof_rewind", "cold and warm as-of StockLevel at 1/3/10/25 min back: cost follows data touched and distance; no locks or appends", func() workload { return &asofRewind{} }},
	{"asof_beside_writes", "one client alternates 100 TPC-C txns and an as-of session 2 min back: writers and chain reads share log and caches", func() workload { return &asofBesideWrites{} }},
	{"crash_recovery", "recover a crash image of 2000 txns past the checkpoint with one in-flight txn: scan, redo, undo, first query", func() workload { return &crashRecovery{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// counters is a reading of every public counter the rig takes deltas of.
type counters struct {
	dev      [3]media.StatsSnapshot // data, log, side
	model    time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
	pool     buffer.Stats
	appends  int64
	appendB  int64
	flushes  int64
	flushHst []int64
	undoRead int64
	ckpts    int64
}

func (c *counters) add(a, b counters) { // c += b - a
	for i := range c.dev {
		d := b.dev[i].Sub(a.dev[i])
		c.dev[i].RandReads += d.RandReads
		c.dev[i].RandWrites += d.RandWrites
		c.dev[i].SeqReads += d.SeqReads
		c.dev[i].SeqWrites += d.SeqWrites
		c.dev[i].ReadBytes += d.ReadBytes
		c.dev[i].WriteBytes += d.WriteBytes
	}
	c.model += b.model - a.model
	c.alloc += b.alloc - a.alloc
	c.gcCycles += b.gcCycles - a.gcCycles
	c.gcPause += b.gcPause - a.gcPause
	c.pool.Hits += b.pool.Hits - a.pool.Hits
	c.pool.Misses += b.pool.Misses - a.pool.Misses
	c.pool.Evictions += b.pool.Evictions - a.pool.Evictions
	c.pool.Writebacks += b.pool.Writebacks - a.pool.Writebacks
	c.appends += b.appends - a.appends
	c.appendB += b.appendB - a.appendB
	c.flushes += b.flushes - a.flushes
	c.undoRead += b.undoRead - a.undoRead
	c.ckpts += b.ckpts - a.ckpts
	if len(c.flushHst) < len(b.flushHst) {
		c.flushHst = append(c.flushHst, make([]int64, len(b.flushHst)-len(c.flushHst))...)
	}
	for i, v := range b.flushHst {
		if i < len(a.flushHst) {
			v -= a.flushHst[i]
		}
		c.flushHst[i] += v
	}
}

// driverCounts counts what the TPC-C client did.
type driverCounts struct {
	txns, newOrders, userAborts, retries int
}

func (c driverCounts) sub(o driverCounts) driverCounts {
	return driverCounts{c.txns - o.txns, c.newOrders - o.newOrders, c.userAborts - o.userAborts, c.retries - o.retries}
}

type sliceRec struct {
	ops       int
	wall, cpu time.Duration
}

// curvePoint accumulates the counted part of the as-of distance curve.
type curvePoint struct {
	ops      int
	model    time.Duration
	undoRead int64
}

type asofTotals struct {
	pagesPrepared, recordsUndone, imageRestores, imageChainHops int64
	sidePages                                                   int64
}

// rig is the state of one run of one workload: the modelled devices, the
// clocks, the database under test and the accounting.
type rig struct {
	cfg  config
	tcfg tpcc.Config
	rng  *rand.Rand // the harness's own inputs: mix, warehouse, district, query targets
	dir  string     // everything the run writes
	// diskDir is the database directory disk_mib measures (dir by default).
	diskDir string

	vclk            *vclock.Clock
	mclk            *media.Clock
	data, log, side *media.Device

	db *engine.DB
	tr *tracer

	// TPC-C driver state.
	tick      time.Duration // virtual time one transaction advances the clock by
	deck      []card
	deckPos   int
	hid       int64
	committed map[[2]int]int // (w,d) -> committed NewOrders since load
	driverCounts
	measured driverCounts // the measured phase's share

	// Accounting of the measured phase.
	attempted, failed int
	notes             []string
	slices            []sliceRec
	acc               counters
	diskBytes         []float64
	kernelNS          []float64
	traceFrom         int
	curve             [4]curvePoint
	asof              asofTotals
	sidePeak          int64 // largest side file mounted during the current slice
	peakRSS           float64
	recoveries        int        // timed crash recoveries
	lastDB            *engine.DB // database the probes run on
}

func newRig(cfg config, traced bool) (*rig, error) {
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TmpDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	r := &rig{
		cfg: cfg,
		tcfg: tpcc.Config{
			Warehouses: warehouses, DistrictsPerW: districts, CustomersPerD: customers,
			Items: items, OrderLinesMin: 5, OrderLinesMax: 15, AbortPercent: 1, Seed: cfg.Seed,
		},
		// The seed reaches the engine only through generated inputs.
		rng:       rand.New(rand.NewSource(cfg.Seed*7919 + 17)),
		dir:       dir,
		diskDir:   dir,
		tick:      txnTick,
		vclk:      vclock.New(time.Time{}),
		mclk:      &media.Clock{},
		committed: make(map[[2]int]int),
		deck:      newDeck(),
	}
	r.deckPos = len(r.deck) // the first draw shuffles
	r.data = media.New(media.SSD(), r.mclk)
	r.log = media.New(media.SSD(), r.mclk)
	r.side = media.New(media.SSD(), r.mclk)
	if traced {
		r.tr = newTracer()
	}
	return r, nil
}

// open opens a database under the fixed configuration; o carries only the
// options a workload lists.
func (r *rig) open(dir string, o engine.Options) (*engine.DB, error) {
	o.SyncPolicy = wal.SyncNone
	o.Now = r.vclk.Now
	o.DataDevice = r.data
	o.LogDevice = r.log
	return engine.Open(dir, o)
}

// discard closes whatever the run left open and removes its files.
func (r *rig) discard() {
	for _, db := range []*engine.DB{r.db, r.lastDB} {
		if db != nil && !db.Closed() {
			db.Close()
		}
	}
	os.RemoveAll(r.dir)
}

// note records why an operation or an oracle check failed.
func (r *rig) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed or wrong result.
func (r *rig) fail(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// --- the TPC-C client ---

// card is one transaction of the deck: its type and its home district.
type card struct{ kind, w, d uint8 }

const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
)

// newDeck returns one deck of 2000 transactions in the standard mix
// (45/43/4/4/4, as tpcc.Driver.one): per district 45 NewOrder, 43 Payment,
// 4 OrderStatus and 4 StockLevel, per warehouse 40 Delivery. Drawing from a
// shuffled deck (TPC-C clause 5.2.4.2) instead of rolling a die per
// transaction keeps the mix exact over every 2000 transactions. That matters
// here because the backlog of undelivered orders is the small difference of
// two large counts: with a die it varies by tens of percent from seed to
// seed, and with it how cold the pages Delivery reads are.
func newDeck() []card {
	var deck []card
	add := func(kind, w, d, n int) {
		for i := 0; i < n; i++ {
			deck = append(deck, card{uint8(kind), uint8(w), uint8(d)})
		}
	}
	for w := 1; w <= warehouses; w++ {
		for d := 1; d <= districts; d++ {
			add(txNewOrder, w, d, 45)
			add(txPayment, w, d, 43)
			add(txOrderStatus, w, d, 4)
			add(txStockLevel, w, d, 4)
		}
		add(txDelivery, w, 1, 4*districts)
	}
	return deck
}

// draw returns the next card, reshuffling when the deck runs out.
func (r *rig) draw() card {
	if r.deckPos == len(r.deck) {
		r.rng.Shuffle(len(r.deck), func(i, j int) { r.deck[i], r.deck[j] = r.deck[j], r.deck[i] })
		r.deckPos = 0
	}
	r.deckPos++
	return r.deck[r.deckPos-1]
}

// txn runs one transaction drawn from the deck and advances virtual time by
// one tick. The harness owns this loop, not tpcc.Driver, so it can put a
// span around each call.
func (r *rig) txn() error {
	c := r.draw()
	w, d := int(c.w), int(c.d)
	op := r.tr.begin(spOp)
	defer r.tr.end(op)
	for attempt := 0; attempt < 100; attempt++ {
		s := r.tr.begin(spBegin)
		tx, err := r.db.Begin()
		r.tr.end(s)
		if err != nil {
			return err
		}
		now := r.db.Now()
		switch c.kind {
		case txNewOrder:
			s = r.tr.begin(spNewOrder)
			err = tpcc.NewOrder(tx, r.tcfg, r.rng, w, d, now)
		case txPayment:
			r.hid++
			s = r.tr.begin(spPayment)
			err = tpcc.Payment(tx, r.tcfg, r.rng, w, d, r.hid, now)
		case txOrderStatus:
			s = r.tr.begin(spOrderStatus)
			err = tpcc.OrderStatus(tx, r.tcfg, r.rng, w, d)
		case txDelivery:
			carrier := 1 + r.rng.Intn(10)
			s = r.tr.begin(spDelivery)
			err = tpcc.Delivery(tx, r.tcfg, w, carrier, now)
		default:
			s = r.tr.begin(spStockLevel)
			_, err = tpcc.StockLevel(tx, w, d, 15)
		}
		r.tr.end(s)
		switch {
		case err == nil:
			ck := r.db.CheckpointCount.Load()
			s = r.tr.begin(spCommit)
			err = tx.Commit()
			r.tr.endArg(s, int32(r.db.CheckpointCount.Load()-ck))
			if err != nil {
				return err
			}
			if c.kind == txNewOrder {
				r.committed[[2]int{w, d}]++
				r.newOrders++
			}
		case errors.Is(err, tpcc.ErrUserAbort):
			s = r.tr.begin(spRollback)
			err = tx.Rollback()
			r.tr.end(s)
			if err != nil {
				return err
			}
			r.userAborts++
			r.newOrders++
		case errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrLockTimeout):
			// Cannot happen with one client; counted so it would show.
			r.retries++
			if rerr := tx.Rollback(); rerr != nil {
				return rerr
			}
			continue
		default:
			tx.Rollback()
			return fmt.Errorf("tpcc: %w", err)
		}
		r.txns++
		r.vclk.Advance(r.tick)
		return nil
	}
	return errors.New("tpcc: transaction starved by deadlock retries")
}

// runTxns runs n transactions outside the measured phase (set-up).
func (r *rig) runTxns(n int) error {
	for i := 0; i < n; i++ {
		if err := r.txn(); err != nil {
			return err
		}
	}
	return nil
}

// measuredTxns runs n transactions inside the measured phase and returns
// how many failed.
func (r *rig) measuredTxns(n int) (bad int) {
	for i := 0; i < n; i++ {
		if err := r.txn(); err != nil {
			r.note("txn: %v", err)
			bad++
		}
	}
	return bad
}

// liveStockLevels records the live StockLevel answers for the given (w,d)
// pairs in a read-only transaction: the oracle an as-of query at this
// instant must reproduce.
func (r *rig) liveStockLevels(pairs [][2]int) ([]int, error) {
	tx, err := r.db.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	out := make([]int, len(pairs))
	for i, p := range pairs {
		if out[i], err = tpcc.StockLevel(tx, p[0], p[1], 15); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func allDistricts() [][2]int {
	var out [][2]int
	for w := 1; w <= warehouses; w++ {
		for d := 1; d <= districts; d++ {
			out = append(out, [2]int{w, d})
		}
	}
	return out
}

// --- measurement ---

func (r *rig) take() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		dev:      [3]media.StatsSnapshot{r.data.Stats.Snapshot(), r.log.Stats.Snapshot(), r.side.Stats.Snapshot()},
		model:    r.mclk.Elapsed(),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
	}
	if db := r.db; db != nil {
		c.pool = db.Pool().Stats()
		c.undoRead = db.Log().UndoReads.Load()
		c.ckpts = db.CheckpointCount.Load()
		reg := db.Obs()
		c.appends = reg.Counter("wal_appends_total", "").Load()
		c.appendB = reg.Counter("wal_append_bytes_total", "").Load()
		c.flushes = db.Log().Flushes.Load()
		c.flushHst = reg.SizeHistogram("wal_flush_batch_bytes", "").BucketCounts()
	}
	return c
}

// slice runs fn as one fixed-work slice of ops operations. Counter deltas
// and wall time are taken around fn only; the bookkeeping between slices
// (memstats, directory size, the calibration kernel) is outside every
// metric.
func (r *rig) slice(ops int, fn func()) {
	before := r.take()
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	r.acc.add(before, r.take())
	r.slices = append(r.slices, sliceRec{ops: ops, wall: wall, cpu: cpu})
	r.sampleDisk()
	r.kernelNS = append(r.kernelNS, float64(kernel()))
}

// sampleDisk records the bytes of all files under the run directory, plus
// the largest side file a snapshot held during the slice (side files are
// removed when their snapshot closes).
func (r *rig) sampleDisk() {
	total := r.sidePeak
	r.sidePeak = 0
	filepath.WalkDir(r.diskDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	r.diskBytes = append(r.diskBytes, float64(total))
}

const kernelIters = 1 << 19

var kernelSink uint64

// kernel is a fixed pure-CPU loop of about 1 ms timed between slices. Its
// lower decile says how fast the box was during the run; it is reported
// (rig.kernel_p10_ns) and never used to rescale a metric.
func kernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	kernelSink += x
	return time.Since(t0)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects the heap, returns the freed memory to the system and
// resets VmHWM to what is resident now (Linux: "5" to clear_refs), so that
// peak_rss_mib is the high-water mark of the measured phase. Without it the
// set-up's peak, which moves with the collector's timing, is what a run whose
// measured phase needs less memory than its set-up (crash_recovery) reports.
// Where the reset is not available the mark stays the whole process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func (r *rig) totalOps() float64 {
	n := 0
	for _, s := range r.slices {
		n += s.ops
	}
	return float64(n)
}

// perOpWall returns each slice's wall time per op, in µs.
func (r *rig) perOpWall() []float64 {
	out := make([]float64, len(r.slices))
	for i, s := range r.slices {
		out[i] = float64(s.wall.Nanoseconds()) / 1e3 / float64(s.ops)
	}
	return out
}

// endToEndMetrics derives the eight end-to-end metrics from the measured
// phase. setupS is supplied by the caller (median over repeated set-ups).
func (r *rig) endToEndMetrics(setupS float64) map[string]float64 {
	ops := r.totalOps()
	var rd, wr int64
	for _, d := range r.acc.dev {
		rd += d.ReadBytes
		wr += d.WriteBytes
	}
	return map[string]float64{
		"setup_s":            setupS,
		"wall_us_per_op":     quantile(r.perOpWall(), 0.10),
		"io_model_us_per_op": div(float64(r.acc.model.Nanoseconds())/1e3, ops),
		"read_bytes_per_op":  div(float64(rd), ops),
		"write_bytes_per_op": div(float64(wr), ops),
		"alloc_bytes_per_op": div(float64(r.acc.alloc), ops),
		"disk_mib":           mean(r.diskBytes) / mib,
		"peak_rss_mib":       r.peakRSS,
	}
}

// reconcile asserts that the per-device counters account for the
// end-to-end byte and model-time metrics: the device bytes sum to the
// totals by construction, and latency × random ops + bytes ÷ bandwidth over
// the three devices must reproduce the media clock's elapsed time.
func (r *rig) reconcile() {
	var model float64 // ns
	for _, d := range r.acc.dev {
		p := media.SSD()
		model += float64(d.RandReads)*float64(p.RandReadLat) + float64(d.RandWrites)*float64(p.RandWriteLat)
		model += float64(d.ReadBytes)/float64(p.SeqReadBPS)*1e9 + float64(d.WriteBytes)/float64(p.SeqWriteBPS)*1e9
	}
	got := float64(r.acc.model.Nanoseconds())
	if got <= 0 || math.Abs(model-got)/got > 0.005 {
		r.fail("media model does not reconcile: counters give %.0f ns, clock %.0f ns", model, got)
	}
}
