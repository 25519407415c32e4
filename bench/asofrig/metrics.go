package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract: BENCHMARK.json repeats them (a test compares), every
// workload reports every name, and a name never changes meaning.
type metricDef struct{ Name, Unit string }

// endToEnd metrics are all lower-is-better. Seven are counted work or time
// on the media.Device model and so exact per seed; wall_us_per_op is the one
// timed metric, estimated as the lower decile over fixed-work slices.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_us_per_op", "us"},
	{"io_model_us_per_op", "us"},
	{"read_bytes_per_op", "B"},
	{"write_bytes_per_op", "B"},
	{"alloc_bytes_per_op", "B"},
	{"disk_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
}

// perLayer metrics are diagnostics without bounds: spans around the
// harness's own calls, probes of a layer's public functions after the
// measured phase, and deltas of public counters.
var perLayer = []metricDef{
	{"engine.txn_us_p50", "us"},
	{"engine.txn_us_p99", "us"},
	{"engine.dml_us_per_txn", "us"},
	{"engine.commit_us_p50", "us"},
	{"engine.commit_us_p99", "us"},
	{"engine.get_warm_ns", "ns"},
	{"engine.ckpt_per_kop", "1/kop"},
	{"engine.ckpt_us_p50", "us"},
	{"engine.recovery_open_us_p50", "us"},
	{"engine.first_query_us_p50", "us"},
	{"engine.redo_log_bytes_per_op", "B"},
	{"engine.redo_page_reads_per_op", "1/op"},
	{"engine.undo_records_per_op", "1/op"},

	{"txn.lock_ns", "ns"},
	{"txn.release_ns_per_lock", "ns"},
	{"txn.deadlock_retries_per_kop", "1/kop"},

	{"btree.depth_max", "count"},
	{"btree.leaf_pages", "count"},
	{"btree.leaf_fill", "ratio"},

	{"wal.append_bytes_per_op", "B"},
	{"wal.records_per_op", "1/op"},
	{"wal.flushes_per_op", "1/op"},
	{"wal.flush_batch_bytes_p50", "B"},
	{"wal.append_ns_per_record", "ns"},
	{"wal.append_flush_us", "us"},
	{"wal.scan_mib_per_s", "MiB/s"},
	{"wal.chain_hop_ns_cold", "ns"},
	{"wal.chain_hop_ns_warm", "ns"},
	{"wal.block_reads_per_op", "1/op"},
	{"wal.records_per_block_read", "ratio"},

	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions_per_op", "1/op"},
	{"buffer.writebacks_per_op", "1/op"},
	{"buffer.fetch_hit_ns", "ns"},
	{"buffer.fetch_miss_us", "us"},

	{"media.log_write_bytes_per_op", "B"},
	{"media.log_read_bytes_per_op", "B"},
	{"media.log_rand_reads_per_op", "1/op"},
	{"media.data_read_bytes_per_op", "B"},
	{"media.data_rand_reads_per_op", "1/op"},
	{"media.data_write_bytes_per_op", "B"},
	{"media.side_write_bytes_per_op", "B"},
	{"media.side_read_bytes_per_op", "B"},

	{"sidefile.pages_per_op", "1/op"},
	{"sidefile.write_ns", "ns"},
	{"sidefile.read_ns", "ns"},

	{"asof.resolve_us_p50", "us"},
	{"asof.mount_us_p50", "us"},
	{"asof.query_cold_us_p50", "us"},
	{"asof.query_warm_us_p50", "us"},
	{"asof.close_us_p50", "us"},
	{"asof.prepare_page_us", "us"},
	{"asof.pages_prepared_per_op", "1/op"},
	{"asof.records_undone_per_op", "1/op"},
	{"asof.image_restores_per_op", "1/op"},
	{"asof.image_chain_hops_per_op", "1/op"},
	{"asof.wall_us_at_1m", "us"},
	{"asof.wall_us_at_3m", "us"},
	{"asof.wall_us_at_10m", "us"},
	{"asof.wall_us_at_25m", "us"},
	{"asof.io_model_us_at_1m", "us"},
	{"asof.io_model_us_at_3m", "us"},
	{"asof.io_model_us_at_10m", "us"},
	{"asof.io_model_us_at_25m", "us"},
	{"asof.undo_ios_at_25m", "1/op"},

	{"tpcc.gen_us_per_op", "us"},
	{"tpcc.user_aborts_per_kop", "1/kop"},
	{"tpcc.neworder_share", "ratio"},

	{"rig.cpu_us_per_op", "us"},
	{"rig.wall_us_per_op_p50", "us"},
	{"rig.wall_us_per_op_mean", "us"},
	{"rig.slices", "count"},
	{"rig.gc_cycles", "count"},
	{"rig.gc_pause_ms_total", "ms"},
	{"rig.kernel_p10_ns", "ns"},
	{"rig.fdatasync_us", "us"},
	{"rig.span_coverage", "ratio"},
	{"rig.trace_overhead_frac", "ratio"},
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for an empty slice). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// div is a/b, 0 when b is 0 (a workload that never exercised the layer).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
