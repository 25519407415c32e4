package main

import "repro/internal/obs"

// curveNames suffix the distance-curve metrics, in sweepMinutes order.
var curveNames = [4]string{"1m", "3m", "10m", "25m"}

// perLayerMetrics derives every per-layer metric of a traced run: counted
// ones from the public-counter deltas of the measured phase, timed ones from
// span self time, and the rest from the probes (filled in by r.probes).
// A metric whose layer the workload never exercised reads 0.
func (r *rig) perLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	ops := r.totalOps()
	kop := ops / 1000
	a := &r.acc
	data, log, side := a.dev[0], a.dev[1], a.dev[2]

	// Counted work.
	m["engine.ckpt_per_kop"] = div(float64(a.ckpts), kop)
	m["txn.deadlock_retries_per_kop"] = div(float64(r.measured.retries), kop)
	m["wal.append_bytes_per_op"] = div(float64(a.appendB), ops)
	m["wal.records_per_op"] = div(float64(a.appends), ops)
	m["wal.flushes_per_op"] = div(float64(a.flushes), ops)
	m["wal.flush_batch_bytes_p50"] = histogramP50(a.flushHst, obs.DefaultSizeBuckets)
	m["wal.block_reads_per_op"] = div(float64(a.undoRead), ops)
	m["wal.records_per_block_read"] = div(float64(r.asof.recordsUndone), float64(a.undoRead))
	m["buffer.hit_ratio"] = div(float64(a.pool.Hits), float64(a.pool.Hits+a.pool.Misses))
	m["buffer.evictions_per_op"] = div(float64(a.pool.Evictions), ops)
	m["buffer.writebacks_per_op"] = div(float64(a.pool.Writebacks), ops)
	m["media.log_write_bytes_per_op"] = div(float64(log.WriteBytes), ops)
	m["media.log_read_bytes_per_op"] = div(float64(log.ReadBytes), ops)
	m["media.log_rand_reads_per_op"] = div(float64(log.RandReads), ops)
	m["media.data_read_bytes_per_op"] = div(float64(data.ReadBytes), ops)
	m["media.data_rand_reads_per_op"] = div(float64(data.RandReads), ops)
	m["media.data_write_bytes_per_op"] = div(float64(data.WriteBytes), ops)
	m["media.side_write_bytes_per_op"] = div(float64(side.WriteBytes), ops)
	m["media.side_read_bytes_per_op"] = div(float64(side.ReadBytes), ops)
	m["sidefile.pages_per_op"] = div(float64(r.asof.sidePages), ops)
	m["asof.pages_prepared_per_op"] = div(float64(r.asof.pagesPrepared), ops)
	m["asof.records_undone_per_op"] = div(float64(r.asof.recordsUndone), ops)
	m["asof.image_restores_per_op"] = div(float64(r.asof.imageRestores), ops)
	m["asof.image_chain_hops_per_op"] = div(float64(r.asof.imageChainHops), ops)
	for i, name := range curveNames {
		c := r.curve[i]
		m["asof.io_model_us_at_"+name] = div(float64(c.model.Nanoseconds())/1e3, float64(c.ops))
	}
	m["asof.undo_ios_at_25m"] = div(float64(r.curve[3].undoRead), float64(r.curve[3].ops))
	m["tpcc.user_aborts_per_kop"] = div(float64(r.measured.userAborts), float64(r.measured.txns)/1000)
	m["tpcc.neworder_share"] = div(float64(r.measured.newOrders), float64(r.measured.txns))
	if r.recoveries > 0 { // every op was an engine.Open of a crash image
		// Recovery appends one CLR per record it undoes, then the abort
		// record and the closing checkpoint's begin and end.
		m["engine.redo_log_bytes_per_op"] = m["media.log_read_bytes_per_op"]
		m["engine.redo_page_reads_per_op"] = div(float64(data.RandReads+data.SeqReads), ops)
		if v := div(float64(a.appends), ops) - 3; v > 0 {
			m["engine.undo_records_per_op"] = v
		}
	}

	// The rig itself.
	wall := r.perOpWall()
	cpu := make([]float64, len(r.slices))
	for i, s := range r.slices {
		cpu[i] = float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.ops)
	}
	m["rig.cpu_us_per_op"] = quantile(cpu, 0.10)
	m["rig.wall_us_per_op_p50"] = quantile(wall, 0.50)
	m["rig.wall_us_per_op_mean"] = mean(wall)
	m["rig.slices"] = float64(len(r.slices))
	m["rig.gc_cycles"] = float64(a.gcCycles)
	m["rig.gc_pause_ms_total"] = float64(a.gcPause) / 1e6
	m["rig.kernel_p10_ns"] = quantile(r.kernelNS, 0.10)

	r.spanMetrics(m)
	return m
}

// spanMetrics derives the timed per-layer metrics from the spans of the
// measured phase. Layer spans never nest in each other, so a layer span's
// self time is its duration; a harness span's self time is what the harness
// itself spent (input generation, oracle comparison, span bookkeeping).
func (r *rig) spanMetrics(m map[string]float64) {
	if r.tr == nil {
		return
	}
	spans := r.tr.spans[r.traceFrom:]
	self := r.tr.selfTimes(r.traceFrom)
	var dur [numSpanNames][]float64
	var curve [4][]float64
	var ckpt []float64
	var covered, txnSelf, body float64
	for i, s := range spans {
		us := float64(s.end-s.start) / 1e3
		dur[s.name] = append(dur[s.name], us)
		if !s.name.harness() {
			covered += us
		}
		switch s.name {
		case spOp:
			txnSelf += float64(self[i]) / 1e3
		case spNewOrder, spPayment, spOrderStatus, spDelivery, spStockLevel:
			body += us
		case spSession:
			if s.arg >= 0 {
				curve[s.arg] = append(curve[s.arg], us)
			}
		case spCommit:
			if s.arg > 0 {
				ckpt = append(ckpt, us)
			}
		}
	}
	for _, s := range r.tr.spans { // explicit checkpoints happen in set-up
		if s.name == spCheckpoint {
			ckpt = append(ckpt, float64(s.end-s.start)/1e3)
		}
	}
	nTxn := float64(len(dur[spOp]))
	m["engine.txn_us_p50"] = quantile(dur[spOp], 0.50)
	m["engine.txn_us_p99"] = quantile(dur[spOp], 0.99)
	m["engine.dml_us_per_txn"] = div(body, nTxn)
	m["engine.commit_us_p50"] = quantile(dur[spCommit], 0.50)
	m["engine.commit_us_p99"] = quantile(dur[spCommit], 0.99)
	m["engine.ckpt_us_p50"] = quantile(ckpt, 0.50)
	m["engine.recovery_open_us_p50"] = quantile(dur[spOpen], 0.50)
	m["engine.first_query_us_p50"] = quantile(dur[spFirstQuery], 0.50)
	m["asof.mount_us_p50"] = quantile(dur[spMount], 0.50)
	m["asof.query_cold_us_p50"] = quantile(dur[spQueryCold], 0.50)
	m["asof.query_warm_us_p50"] = quantile(dur[spQueryWarm], 0.50)
	m["asof.close_us_p50"] = quantile(dur[spSnapClose], 0.50)
	for i, name := range curveNames {
		m["asof.wall_us_at_"+name] = quantile(curve[i], 0.50)
	}
	m["tpcc.gen_us_per_op"] = div(txnSelf, nTxn)
	var sliceWall float64
	for _, s := range r.slices {
		sliceWall += float64(s.wall.Nanoseconds()) / 1e3
	}
	m["rig.span_coverage"] = div(covered, sliceWall)
}

// histogramP50 returns the upper bound of the bucket holding the median of
// a bucketed distribution (the last finite bound for the overflow bucket).
func histogramP50(counts, bounds []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if 2*cum >= total {
			if i < len(bounds) {
				return float64(bounds[i])
			}
			break
		}
	}
	return float64(bounds[len(bounds)-1])
}
