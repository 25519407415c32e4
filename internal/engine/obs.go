package engine

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/storage/buffer"
)

// dbMetrics is the engine's hot-path instrumentation. Held by value on the
// DB: the zero value's nil handles make every observation a no-op (see
// internal/obs), which is exactly the Options.DisableObs mode — the
// -obsoff A/B arm runs the same code with nil handles and no clock reads.
type dbMetrics struct {
	commitSeconds     *obs.Histogram // Commit call to durable
	abortSeconds      *obs.Histogram // Rollback call to undone
	activeTxns        *obs.Gauge
	checkpointSeconds *obs.Histogram
	ckptDirtyPages    *obs.Gauge   // DPT length at the last checkpoint
	ckptPagesWritten  *obs.Counter // pages checkpoints wrote back
	attMarks          *obs.Counter // analysis marks appended (mark cadence)
	splitsMid         *obs.Counter // node splits placed at n/2
	splitsPoint       *obs.Counter // node splits placed at the insertion point
	leafFrees         *obs.Counter // emptied leaves unlinked and freed
	// Crash recovery's redo: pages it read from the data file, the device
	// reads that carried them, pages it rebuilt in a zeroed frame from a
	// record that rewrites them whole, and pages its evictions wrote back.
	recoveryPagesRead    *obs.Counter
	recoveryReadIOs      *obs.Counter
	recoveryPagesRebuilt *obs.Counter
	recoveryPagesWritten *obs.Counter
}

// initObs builds the database's metric registry and wires every layer into
// it: engine latencies here, the WAL manager's hot counters via
// wal.RegisterObs, and the buffer pool's pre-existing per-shard atomics as
// scrape-time readers (zero added fetch-path cost). Called once at Open,
// before the engine is shared between goroutines.
func (db *DB) initObs() {
	r := obs.NewRegistry()
	db.obs = r
	db.metrics = dbMetrics{
		commitSeconds:     r.DurationHistogram("engine_commit_seconds", "transaction commit latency (Commit call to durable)"),
		abortSeconds:      r.DurationHistogram("engine_abort_seconds", "transaction rollback latency"),
		activeTxns:        r.Gauge("engine_active_txns", "open transactions"),
		checkpointSeconds: r.DurationHistogram("engine_checkpoint_seconds", "checkpoint duration"),
		ckptDirtyPages:    r.Gauge("engine_checkpoint_dirty_pages", "pages in the last checkpoint's dirty-page table"),
		ckptPagesWritten:  r.Counter("engine_checkpoint_pages_written_total", "dirty pages checkpoints wrote back"),
		attMarks:          r.Counter("engine_att_marks_total", "analysis marks appended (mark cadence)"),
		splitsMid:         r.Counter("btree_splits_total", "B-tree node splits by where the split was placed", obs.L("kind", "mid")),
		splitsPoint:       r.Counter("btree_splits_total", "B-tree node splits by where the split was placed", obs.L("kind", "point")),
		leafFrees:         r.Counter("btree_leaf_frees_total", "emptied B-tree leaves unlinked and freed"),
		recoveryPagesRead: r.Counter("engine_recovery_pages_read_total", "pages crash recovery's redo read from the data file"),
		recoveryReadIOs: r.Counter("engine_recovery_read_ios_total",
			"device reads that carried the pages crash recovery's redo read (runs read ahead count once)"),
		recoveryPagesRebuilt: r.Counter("engine_recovery_pages_rebuilt_total",
			"pages crash recovery's redo rebuilt from a format, preformat or image record without reading them"),
		recoveryPagesWritten: r.Counter("engine_recovery_pages_written_total",
			"pages crash recovery's redo wrote back to the data file to free frames (evictions of pages it changed)"),
	}
	r.CounterFunc("engine_checkpoints_total", "checkpoints taken", db.CheckpointCount.Load)
	r.GaugeFunc("engine_applied_lsn", "standby redo high-water mark (0 on a primary)",
		func() int64 { return int64(db.appliedLSN.Load()) })

	db.log.RegisterObs(r)

	r.CounterFunc("buffer_pool_hits_total", "fetches served from a resident frame",
		func() int64 { return db.pool.Stats().Hits })
	r.CounterFunc("buffer_pool_misses_total", "fetches that read the page in",
		func() int64 { return db.pool.Stats().Misses })
	r.CounterFunc("buffer_pool_evictions_total", "cached pages evicted",
		func() int64 { return db.pool.Stats().Evictions })
	r.CounterFunc("buffer_pool_writebacks_total", "dirty pages written back",
		func() int64 { return db.pool.Stats().Writebacks })
	r.CounterFunc("buffer_writebacks_total", "dirty pages written back, by cause",
		func() int64 { return db.pool.Stats().EvictWritebacks }, obs.L("cause", "eviction"))
	r.CounterFunc("buffer_writebacks_total", "dirty pages written back, by cause",
		func() int64 { return db.pool.Stats().FlushWritebacks }, obs.L("cause", "checkpoint"))
	r.CounterFunc("buffer_writeback_ios_total", "device writes that carried the written-back pages, by cause",
		func() int64 { return db.pool.Stats().FlushWriteIOs }, obs.L("cause", "checkpoint"))
	// As-of snapshots add their side files' I/O and shared pages as they close.
	r.Counter("sidefile_write_ios_total", "side-file device writes by as-of snapshots")
	r.Counter("sidefile_pages_written_total", "pages those side-file writes carried")
	r.Counter("sidefile_read_ios_total", "snapshot pool misses served from the side file")
	r.Counter("asof_pages_shared_total", "pages snapshots served from the primary with no side-file copy")
	r.GaugeFunc("buffer_pool_resident_pages", "pages currently cached",
		func() int64 { return int64(db.pool.Resident()) })
	for _, fam := range []struct {
		name, help string
		value      func(buffer.Stats) int64
	}{
		{"buffer_shard_hits_total", "per-shard fetch hits", func(s buffer.Stats) int64 { return s.Hits }},
		{"buffer_shard_misses_total", "per-shard fetch misses", func(s buffer.Stats) int64 { return s.Misses }},
		{"buffer_shard_evictions_total", "per-shard evictions", func(s buffer.Stats) int64 { return s.Evictions }},
		{"buffer_shard_writebacks_total", "per-shard dirty writebacks", func(s buffer.Stats) int64 { return s.Writebacks }},
	} {
		value := fam.value
		r.SetCollect(fam.name, fam.help, "counter", func(emit func([]obs.Label, float64)) {
			for i, st := range db.pool.ShardStats() {
				emit([]obs.Label{obs.L("shard", strconv.Itoa(i))}, float64(value(st)))
			}
		})
	}
}

// Obs returns the database's metric registry — nil when Options.DisableObs,
// which every obs handle treats as "off".
func (db *DB) Obs() *obs.Registry { return db.obs }

// startObsListener starts the opt-in observability HTTP listener
// (Options.ObsListen): /metrics, /metrics.json, /debug/pprof.
func (db *DB) startObsListener() error {
	if db.obs == nil || db.opts.ObsListen == "" {
		return nil
	}
	srv, err := obs.Serve(db.opts.ObsListen, db.obs)
	if err != nil {
		return err
	}
	db.obsSrv = srv
	return nil
}

// ObsAddr returns the bound observability listener address ("" when none).
func (db *DB) ObsAddr() string {
	if db.obsSrv == nil {
		return ""
	}
	return db.obsSrv.Addr()
}
