package exp

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
)

// CommitOptions configures a CommitThroughput run.
type CommitOptions struct {
	// Committers is the number of concurrent committing goroutines
	// (default 8).
	Committers int
	// Txns is the total number of single-row transactions (default 50000).
	Txns int
	// Preload rows inserted before timing starts, so the measurement runs
	// against a steady-state tree (default 20000).
	Preload int
	// DisableObs runs with the metrics registry disabled — the A/B arm that
	// bounds the always-on observability cost on the commit path.
	DisableObs bool
}

// CommitResult is one arm's measurement.
type CommitResult struct {
	Committers int
	Txns       int
	Elapsed    time.Duration
	PerSec     float64
	Flushes    int64   // physical log writes during the timed region
	PerFlush   float64 // commits per log write: the group-commit batching factor
}

// CommitThroughput measures durable single-row commit throughput under
// concurrent committers — the workload the group-commit pipeline exists
// for. Keys are bit-reversed sequence numbers so committers spread across
// the tree instead of convoying on the rightmost leaf.
func CommitThroughput(dir string, o CommitOptions, w io.Writer) (CommitResult, error) {
	if o.Committers <= 0 {
		o.Committers = 8
	}
	if o.Txns <= 0 {
		o.Txns = 50_000
	}
	if o.Preload <= 0 {
		o.Preload = 20_000
	}
	db, err := engine.Open(dir, engine.Options{
		SyncPolicy:   LogSync,
		BufferFrames: 8192,
		DisableObs:   o.DisableObs,
	})
	if err != nil {
		return CommitResult{}, err
	}
	defer db.Close()

	schema := &row.Schema{
		Name: "bench",
		Columns: []row.Column{
			{Name: "id", Kind: row.KindInt64},
			{Name: "body", Kind: row.KindString},
		},
		KeyCols: 1,
	}
	tx, err := db.Begin()
	if err != nil {
		return CommitResult{}, err
	}
	if err := tx.CreateTable(schema); err != nil {
		return CommitResult{}, err
	}
	if err := tx.Commit(); err != nil {
		return CommitResult{}, err
	}
	key := func(seq uint64) int64 { return int64(bits.Reverse64(seq) >> 16) }
	insert := func(tx *engine.Txn, seq uint64) error {
		return tx.Insert("bench", row.Row{row.Int64(key(seq)), row.String("payload")})
	}
	for lo := 1; lo <= o.Preload; lo += 1000 {
		tx, err := db.Begin()
		if err != nil {
			return CommitResult{}, err
		}
		for i := lo; i < lo+1000 && i <= o.Preload; i++ {
			if err := insert(tx, uint64(i)); err != nil {
				return CommitResult{}, err
			}
		}
		if err := tx.Commit(); err != nil {
			return CommitResult{}, err
		}
	}

	var seq atomic.Uint64
	seq.Store(uint64(o.Preload))
	var firstErr atomic.Value
	flushes0 := db.Log().Flushes.Load()
	start := time.Now()
	var wg sync.WaitGroup
	per := o.Txns / o.Committers
	for c := 0; c < o.Committers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx, err := db.Begin()
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if err := insert(tx, seq.Add(1)); err != nil {
					tx.Rollback()
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if err := tx.Commit(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return CommitResult{}, err
	}
	res := CommitResult{
		Committers: o.Committers,
		Txns:       per * o.Committers,
		Elapsed:    elapsed,
		PerSec:     float64(per*o.Committers) / elapsed.Seconds(),
		Flushes:    db.Log().Flushes.Load() - flushes0,
	}
	if res.Flushes > 0 {
		res.PerFlush = float64(res.Txns) / float64(res.Flushes)
	}
	mode := "group-commit"
	if o.DisableObs {
		mode += "/obsoff"
	}
	fmt.Fprintf(w, "%-13s %d committers  %6d txns  %8.0f commits/s  %6.2f commits/flush\n",
		mode, res.Committers, res.Txns, res.PerSec, res.PerFlush)
	return res, nil
}
