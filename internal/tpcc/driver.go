package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Result summarizes a driver run.
type Result struct {
	Commits    int64
	UserAborts int64
	Deadlocks  int64
	Errors     int64
	// Wall is the real elapsed time.
	Wall time.Duration
	// LogBytes is the log growth during the run.
	LogBytes int64
}

// Tpm returns committed transactions per (real) minute.
func (r Result) Tpm() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Wall.Minutes()
}

func (r Result) String() string {
	return fmt.Sprintf("commits=%d aborts=%d deadlocks=%d errors=%d wall=%v tpm=%.0f log=%dB",
		r.Commits, r.UserAborts, r.Deadlocks, r.Errors, r.Wall.Round(time.Millisecond), r.Tpm(), r.LogBytes)
}

// Driver runs the TPC-C mix against a database with N concurrent clients,
// advancing a virtual wall clock per transaction so the run spans a
// configurable amount of virtual history (the paper's runs cover ~50
// minutes; TimePerTxn controls the compression here).
type Driver struct {
	DB    *engine.DB
	Cfg   Config
	Clock *vclock.Clock
	// TimePerTxn is the virtual time each committed transaction advances
	// the clock by (default 100ms, shared across clients).
	TimePerTxn time.Duration
	// CkptEvery takes a checkpoint every so much *virtual* time, matching
	// the paper's 30-second target recovery interval (§6.1). Zero
	// disables (the engine's log-volume auto-checkpointing still applies).
	CkptEvery time.Duration

	hid      atomic.Int64 // history id generator
	ckptMu   sync.Mutex
	lastCkpt time.Time
}

// NewDriver builds a driver. clock may be nil if the engine uses real time.
func NewDriver(db *engine.DB, cfg Config, clock *vclock.Clock) *Driver {
	d := &Driver{DB: db, Cfg: cfg.withDefaults(), Clock: clock, TimePerTxn: 100 * time.Millisecond}
	if clock != nil {
		d.CkptEvery = 30 * time.Second
	}
	return d
}

// Run executes total transactions of the standard TPC-C mix (45% NewOrder,
// 43% Payment, 4% each OrderStatus/Delivery/StockLevel) across clients
// goroutines, retrying deadlock victims.
func (d *Driver) Run(total, clients int) (Result, error) {
	if clients <= 0 {
		clients = 1
	}
	var res Result
	logStart := d.DB.Log().Size()
	start := time.Now()

	var wg sync.WaitGroup
	var commits, userAborts, deadlocks, errs atomic.Int64
	var firstErr atomic.Value
	per := total / clients
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.Cfg.Seed + int64(cl)*7919))
			for i := 0; i < per; i++ {
				if err := d.one(rng, &commits, &userAborts, &deadlocks); err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	res.Commits = commits.Load()
	res.UserAborts = userAborts.Load()
	res.Deadlocks = deadlocks.Load()
	res.Errors = errs.Load()
	res.Wall = time.Since(start)
	res.LogBytes = d.DB.Log().Size() - logStart
	if v := firstErr.Load(); v != nil {
		return res, v.(error)
	}
	return res, nil
}

// one runs a single mixed transaction with deadlock retry.
func (d *Driver) one(rng *rand.Rand, commits, userAborts, deadlocks *atomic.Int64) error {
	w := 1 + rng.Intn(d.Cfg.Warehouses)
	dist := 1 + rng.Intn(d.Cfg.DistrictsPerW)
	mix := rng.Intn(100)
	for attempt := 0; attempt < 100; attempt++ {
		if attempt > 0 {
			// Deadlock victims back off with growing jitter before retrying.
			backoff := attempt * 300
			if backoff > 20000 {
				backoff = 20000
			}
			time.Sleep(time.Duration(rng.Intn(1+backoff)) * time.Microsecond)
		}
		tx, err := d.DB.Begin()
		if err != nil {
			return err
		}
		now := d.DB.Now()
		switch {
		case mix < 45:
			err = NewOrder(tx, d.Cfg, rng, w, dist, now)
		case mix < 88:
			err = Payment(tx, d.Cfg, rng, w, dist, d.hid.Add(1), now)
		case mix < 92:
			err = OrderStatus(tx, d.Cfg, rng, w, dist)
		case mix < 96:
			err = Delivery(tx, d.Cfg, w, 1+rng.Intn(10), now)
		default:
			_, err = StockLevel(tx, w, dist, 15)
		}
		switch {
		case err == nil:
			if err := tx.Commit(); err != nil {
				return err
			}
			commits.Add(1)
			d.tick()
			return nil
		case errors.Is(err, ErrUserAbort):
			if err := tx.Rollback(); err != nil {
				return err
			}
			userAborts.Add(1)
			d.tick()
			return nil
		case errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrLockTimeout):
			if err := tx.Rollback(); err != nil {
				return err
			}
			deadlocks.Add(1)
			continue // retry
		default:
			tx.Rollback()
			return fmt.Errorf("tpcc: %w", err)
		}
	}
	return errors.New("tpcc: transaction starved by deadlock retries")
}

func (d *Driver) tick() {
	if d.Clock == nil {
		return
	}
	if d.TimePerTxn > 0 {
		d.Clock.Advance(d.TimePerTxn)
	}
	if d.CkptEvery > 0 {
		now := d.Clock.Now()
		d.ckptMu.Lock()
		due := now.Sub(d.lastCkpt) >= d.CkptEvery
		if due {
			d.lastCkpt = now
		}
		d.ckptMu.Unlock()
		if due {
			_ = d.DB.Checkpoint()
		}
	}
}
