package exp

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/repl"
	"repro/internal/tpcc"
	"repro/internal/vclock"
)

// atomicMax folds v into m as a concurrent running maximum (the lag
// samplers' reduce step).
func atomicMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CascadeResult measures a two-hop cascade (primary → R1 → R2, PR 5): the
// leaf's catch-up bandwidth through the mid-tier, per-hop steady-state lag
// under full TPC-C load, and a session-routed as-of query loop served by
// the tree with read-your-writes/monotonic-reads tokens (repl.Router).
type CascadeResult struct {
	Tpm float64 `json:"tpm"`

	// CatchupBytes/ChainApplyMBps: a fresh R1+R2 chain ingesting the warmup
	// history; the leaf's wall-clock bandwidth includes the mid-tier hop.
	CatchupBytes   int64   `json:"catchup_bytes"`
	ChainApplyMBps float64 `json:"chain_apply_mbps"`

	// Per-hop lag statistics sampled during the loaded window: R1 against
	// the primary's durable LSN, R2 against R1's.
	R1LagAvgBytes int64 `json:"r1_lag_avg_bytes"`
	R1LagMaxBytes int64 `json:"r1_lag_max_bytes"`
	R2LagAvgBytes int64 `json:"r2_lag_avg_bytes"`
	R2LagMaxBytes int64 `json:"r2_lag_max_bytes"`

	// Routed reads: how the session router spread the paced §6.3 loop.
	RoutedStandby int           `json:"routed_standby"`
	RoutedPrimary int           `json:"routed_primary"`
	Snapshots     int           `json:"snapshots"`
	AvgCreate     time.Duration `json:"avg_create_ns"`
	AvgQuery      time.Duration `json:"avg_query_ns"`
}

// ReplicationCascade builds a primary → R1 → R2 chain (R1 re-ships its
// local log via Replica.ShipLocal), measures chain catch-up and per-hop
// lag under TPC-C load, and serves the paced as-of loop through a
// token-carrying repl.Router over both tiers.
func ReplicationCascade(dir string, txns, clients int, w io.Writer) (CascadeResult, error) {
	scale := tpcc.DefaultConfig()
	var out CascadeResult

	clock := vclock.New(time.Time{})
	prim, err := engine.Open(filepath.Join(dir, "primary"), engine.Options{
		SyncPolicy:      LogSync,
		Clock:           clock,
		BufferFrames:    2048,
		CheckpointEvery: 4 << 20,
		LogCacheBlocks:  1024,
	})
	if err != nil {
		return out, err
	}
	defer prim.Close()
	if err := tpcc.Load(prim, scale); err != nil {
		return out, err
	}
	d := tpcc.NewDriver(prim, scale, clock)
	if _, err := d.Run(txns/4, clients); err != nil {
		return out, err
	}
	clock.Advance(6 * time.Minute)
	if err := prim.Checkpoint(); err != nil {
		return out, err
	}

	ship := repl.NewShipper(prim, repl.ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship.Close()
	stdOpts := func() repl.ReplicaOptions {
		return repl.ReplicaOptions{
			Engine: engine.Options{Clock: clock, BufferFrames: 2048, LogCacheBlocks: 1024, SyncPolicy: LogSync},
		}
	}
	r1, err := repl.OpenReplica(filepath.Join(dir, "r1"), stdOpts())
	if err != nil {
		return out, err
	}
	defer r1.Close()
	cascade := r1.ShipLocal(repl.ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	r2, err := repl.OpenReplica(filepath.Join(dir, "r2"), stdOpts())
	if err != nil {
		return out, err
	}
	defer r2.Close()

	// Connect both hops and time the leaf's catch-up: the warmup history
	// flows primary → R1 → R2, so the leaf bandwidth pays both hops.
	catchupStart := time.Now()
	hopConns := make([]repl.Conn, 0, 2)
	runDone := make([]chan error, 0, 2)
	connect := func(src *repl.Shipper, rep *repl.Replica) {
		up, down := repl.Pipe()
		done := make(chan error, 1)
		go func() { _ = src.Serve(up) }()
		go func() { done <- rep.Run(down) }()
		hopConns = append(hopConns, down)
		runDone = append(runDone, done)
	}
	connect(ship, r1)
	connect(cascade, r2)
	defer func() {
		for i := range hopConns {
			hopConns[i].Close()
			<-runDone[i]
		}
	}()
	waitChain := func() error {
		target := prim.Log().FlushedLSN()
		deadline := time.Now().Add(2 * time.Minute)
		for r1.AppliedLSN() < target || r2.AppliedLSN() < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("exp: cascade stuck: primary %v, R1 %v, R2 %v",
					target, r1.AppliedLSN(), r2.AppliedLSN())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	if err := waitChain(); err != nil {
		return out, err
	}
	catchupWall := time.Since(catchupStart)
	out.CatchupBytes = r2.Status().Bytes
	if catchupWall > 0 {
		out.ChainApplyMBps = float64(out.CatchupBytes) / catchupWall.Seconds() / (1 << 20)
	}

	// Loaded window: per-hop lag samplers + the paced as-of loop routed
	// through the session router across both tiers.
	horizon := clock.Now()
	clock.Advance(time.Second)
	var r1Samples, r1Sum, r1Max, r2Samples, r2Sum, r2Max atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if lag := int64(prim.Log().FlushedLSN()) - int64(r1.AppliedLSN()); lag > 0 {
				r1Samples.Add(1)
				r1Sum.Add(lag)
				atomicMax(&r1Max, lag)
			} else {
				r1Samples.Add(1)
			}
			if lag := int64(r1.DB().Log().FlushedLSN()) - int64(r2.AppliedLSN()); lag > 0 {
				r2Samples.Add(1)
				r2Sum.Add(lag)
				atomicMax(&r2Max, lag)
			} else {
				r2Samples.Add(1)
			}
		}
	}()

	router := repl.NewRouter(prim, repl.RouterOptions{SnapshotWait: 5 * time.Second})
	router.AddStandby("r1", r1)
	router.AddStandby("r2", r2)
	sess := &repl.Session{}
	var routedStandby, routedPrimary atomic.Int64
	var loopErr error
	var loopSnaps int
	var loopCreate, loopQuery time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		loopSnaps, loopCreate, loopQuery, loopErr = asofLoop(stop, scale, func() (*sec63Snapshot, error) {
			s, route, err := router.SnapshotAsOf(sess, horizon)
			if err != nil {
				return nil, err
			}
			if route.Primary {
				routedPrimary.Add(1)
			} else {
				routedStandby.Add(1)
			}
			return &sec63Snapshot{q: s, close: func() { s.Close() }}, nil
		})
	}()
	res, err := d.Run(txns, clients)
	close(stop)
	wg.Wait()
	if err == nil {
		err = loopErr
	}
	if err != nil {
		return out, err
	}
	out.Tpm = res.Tpm()
	if n := r1Samples.Load(); n > 0 {
		out.R1LagAvgBytes = r1Sum.Load() / n
	}
	if n := r2Samples.Load(); n > 0 {
		out.R2LagAvgBytes = r2Sum.Load() / n
	}
	out.R1LagMaxBytes = r1Max.Load()
	out.R2LagMaxBytes = r2Max.Load()
	out.RoutedStandby = int(routedStandby.Load())
	out.RoutedPrimary = int(routedPrimary.Load())
	out.Snapshots = loopSnaps
	if loopSnaps > 0 {
		out.AvgCreate = loopCreate / time.Duration(loopSnaps)
		out.AvgQuery = loopQuery / time.Duration(loopSnaps)
	}
	if err := waitChain(); err != nil {
		return out, err
	}

	if w != nil {
		fmt.Fprintln(w, "\ncascading replication — primary → R1 → R2, session-routed as-of reads")
		fmt.Fprintf(w, "chain catch-up: %.1f MB/s through two hops (%.1f MiB); tpm under load %.0f\n",
			out.ChainApplyMBps, float64(out.CatchupBytes)/(1<<20), out.Tpm)
		fmt.Fprintf(w, "steady lag: R1 avg %d B / max %d B; R2 avg %d B / max %d B\n",
			out.R1LagAvgBytes, out.R1LagMaxBytes, out.R2LagAvgBytes, out.R2LagMaxBytes)
		fmt.Fprintf(w, "routed reads: %d standby / %d primary-fallback; %d snapshots, create %v, query %v\n",
			out.RoutedStandby, out.RoutedPrimary, out.Snapshots,
			out.AvgCreate.Round(time.Millisecond), out.AvgQuery.Round(time.Millisecond))
	}
	return out, nil
}
