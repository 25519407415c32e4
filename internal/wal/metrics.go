package wal

import (
	"repro/internal/obs"
)

// Metrics is the manager's hot-path instrumentation. The zero value (all
// nil handles) is fully inert — every obs method is nil-receiver-safe —
// so an un-instrumented manager pays only dead branches. It is held by
// value on the Manager to keep the nil-handle no-op semantics without a
// nil-struct check at every site.
type Metrics struct {
	// Appends/AppendBytes count records and framed bytes entering the log.
	Appends     *obs.Counter
	AppendBytes *obs.Counter
	// FlushBytes is the group-commit batch size distribution: the bytes one
	// physical log write covers.
	FlushBytes *obs.Histogram
	// FsyncSeconds is the write+sync latency of one log force, measured on
	// the manager's injected clock.
	FsyncSeconds *obs.Histogram
	// Rotations counts segment rotations (active segment sealed, fresh one
	// created).
	Rotations *obs.Counter
	// Truncations counts retention truncations that persisted a new cut;
	// SegmentsDropped counts whole segments unlinked or archived by them.
	Truncations     *obs.Counter
	SegmentsDropped *obs.Counter
}

// RegisterObs creates the manager's metric set in r under the wal_* family
// names and registers scrape-time readers over the pre-existing counters
// (Flushes, flushed LSN, log size, segment count). Call before the manager
// is shared between goroutines; a nil registry is a no-op, leaving the
// inert zero Metrics in place.
func (m *Manager) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	m.metrics = Metrics{
		Appends:         r.Counter("wal_appends_total", "records appended to the log"),
		AppendBytes:     r.Counter("wal_append_bytes_total", "framed bytes appended to the log"),
		FlushBytes:      r.SizeHistogram("wal_flush_batch_bytes", "bytes covered by one physical log write (group-commit batch size)"),
		FsyncSeconds:    r.DurationHistogram("wal_fsync_seconds", "write+sync latency of one log force"),
		Rotations:       r.Counter("wal_segment_rotations_total", "log segment rotations"),
		Truncations:     r.Counter("wal_retention_truncations_total", "retention truncations persisting a new cut"),
		SegmentsDropped: r.Counter("wal_retention_segments_dropped_total", "whole segments unlinked or archived by retention"),
	}
	m.store.rotations = m.metrics.Rotations
	r.CounterFunc("wal_flushes_total", "physical log writes (group-commit flushes)", m.Flushes.Load)
	r.CounterFunc("wal_undo_reads_total", "random log block reads served from disk", m.UndoReads.Load)
	r.CounterFunc("wal_blockcache_hits_total", "log block lookups served by the shared block cache", func() int64 { return m.cache.hits.Load() })
	r.CounterFunc("wal_blockcache_misses_total", "log block lookups that went to disk", func() int64 { return m.cache.misses.Load() })
	r.GaugeFunc("wal_flushed_lsn", "highest LSN known durable", func() int64 { return int64(m.FlushedLSN()) })
	r.GaugeFunc("wal_size_bytes", "total log size including the unflushed tail", m.Size)
	r.GaugeFunc("wal_truncation_lsn", "lowest available LSN (retention boundary)", func() int64 { return int64(m.TruncationPoint()) })
	r.GaugeFunc("wal_segments", "live segment files", func() int64 { return int64(len(m.Segments())) })
}
