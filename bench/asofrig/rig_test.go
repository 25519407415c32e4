package main

import (
	"math"
	"os"
	"regexp"
	"testing"
)

// The tests run every workload at 1/50 of the benchmark's size and assert on
// counts only, never on wall time.
const testSeconds = 12.0 / 50

func testConfig(t *testing.T, workload string, seed int64) config {
	dir := t.TempDir()
	return config{Workload: workload, Seed: seed, Seconds: testSeconds, OutDir: dir + "/out", TmpDir: dir + "/db"}
}

// exactCounts depend only on the generated input. The other counted metrics
// also depend on the order in which pages are first touched, which Go's
// randomised map iteration (tpcc.StockLevel ranges over a map) perturbs, and
// on whether a snapshot page is re-read from the side file or from its
// write-behind queue; at this size that can move them by a few percent.
// alloc_bytes_per_op is not compared at all: sync.Pool refills follow GC
// timing, which at 1/50 size is a twentieth of the total.
var exactCounts = []string{
	"wal.append_bytes_per_op", "wal.records_per_op", "media.log_write_bytes_per_op",
	"asof.pages_prepared_per_op", "asof.records_undone_per_op", "sidefile.pages_per_op",
	"tpcc.neworder_share", "tpcc.user_aborts_per_kop", "engine.undo_records_per_op",
}

var closeCounts = []string{"io_model_us_per_op", "read_bytes_per_op", "write_bytes_per_op", "disk_mib"}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, rigA, err := runOnce(testConfig(t, def.name, 1), false, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runTraced(testConfig(t, def.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			c, rigC, err := runOnce(testConfig(t, def.name, 2), false, 1)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*result{"seed 1": a, "seed 1 traced": b, "seed 2": c} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				for _, d := range endToEnd {
					if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v)
					}
				}
			}

			// One seed, two runs: the same counts.
			layersA := rigA.perLayerMetrics()
			for _, k := range exactCounts {
				if layersA[k] != b.PerLayer[k] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", k, layersA[k], b.PerLayer[k])
				}
			}
			for _, k := range closeCounts {
				if d := relDiff(a.EndToEnd[k], b.EndToEnd[k]); d > 0.10 {
					t.Errorf("%s differs by %.2f%% between two runs of seed 1: %v vs %v", k, 100*d, a.EndToEnd[k], b.EndToEnd[k])
				}
			}
			// Two seeds: different inputs, different counts.
			layersC := rigC.perLayerMetrics()
			if layersA["media.log_write_bytes_per_op"] == layersC["media.log_write_bytes_per_op"] &&
				a.EndToEnd["read_bytes_per_op"] == c.EndToEnd["read_bytes_per_op"] {
				t.Errorf("seeds 1 and 2 logged and read the same bytes per op: the seed does not reach the input")
			}

			// The per-device counters account for the end-to-end bytes.
			rd := layersA["media.log_read_bytes_per_op"] + layersA["media.data_read_bytes_per_op"] + layersA["media.side_read_bytes_per_op"]
			wr := layersA["media.log_write_bytes_per_op"] + layersA["media.data_write_bytes_per_op"] + layersA["media.side_write_bytes_per_op"]
			if relDiff(rd, a.EndToEnd["read_bytes_per_op"]) > 1e-12 || relDiff(wr, a.EndToEnd["write_bytes_per_op"]) > 1e-12 {
				t.Errorf("media.* do not sum to the end-to-end bytes: reads %v vs %v, writes %v vs %v",
					rd, a.EndToEnd["read_bytes_per_op"], wr, a.EndToEnd["write_bytes_per_op"])
			}

			if len(b.PerLayer) != len(perLayer) {
				t.Errorf("traced run reports %d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := b.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present=%v)", d.Name, v, ok)
				}
			}
			if _, err := os.Stat(b.traceFile); err != nil {
				t.Errorf("traced run wrote no trace: %v", err)
			}
		})
	}
}

func TestReconcileCatchesAMismatch(t *testing.T) {
	r := &rig{}
	r.acc.dev[0].RandReads = 10
	r.acc.dev[0].ReadBytes = 10 * 8192
	r.acc.model = 10 * (100_000 + 31_250) // 10 × (100 µs + 8 KiB at 250 MiB/s)
	r.reconcile()
	if r.failed != 0 {
		t.Fatalf("matching counters and clock flagged: %v", r.notes)
	}
	r.acc.model *= 2
	r.reconcile()
	if r.failed != 1 {
		t.Fatalf("a clock twice the counters was not flagged")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("bad name or unit: %q %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the rig has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name, "")
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the rig %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the rig %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		check(d.Name, d.Unit)
		e := bf.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != "lower" || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, the rig has %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit)
		if bf.PerLayer[i].Name != d.Name || bf.PerLayer[i].Unit != d.Unit {
			t.Errorf("per_layer[%d] = %+v, the rig has %+v", i, bf.PerLayer[i], d)
		}
	}
	if float64(bf.RunSeconds) != testSeconds*50 {
		t.Errorf("run_seconds = %d, the tests assume %v", bf.RunSeconds, testSeconds*50)
	}
}

func TestCheckProcs(t *testing.T) {
	if err := checkProcs(2, 2); err != nil {
		t.Errorf("GOMAXPROCS = nproc refused: %v", err)
	}
	if err := checkProcs(4, 2); err == nil {
		t.Errorf("GOMAXPROCS > nproc accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: spOp, parent: -1, start: 0, end: 100},
		{name: spBegin, parent: 0, start: 10, end: 30},
		{name: spCommit, parent: 0, start: 40, end: 90},
	}}
	got := tr.selfTimes(0)
	if got[0] != 30 || got[1] != 20 || got[2] != 50 {
		t.Errorf("self times = %v, want [30 20 50]", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := quantile(v, 0.10); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("p10 = %v, want 1.9", got)
	}
}
