// Command asofrig is the repository's benchmark: four fixed-work workloads
// run in-process against the embedded engine, closed loop, one client, with
// a correctness oracle in every run. bench/README.md documents the
// workloads, the metrics and their bounds.
//
//	asofrig run --workload W --seed S --seconds N --trace 0|1
//	asofrig aa  --sets 2 --runs 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "aa":
		err = cmdAA(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asofrig:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: asofrig run --workload W --seed S --seconds N --trace 0|1 [--out DIR] [--tmp DIR]")
	fmt.Fprintln(os.Stderr, "       asofrig aa [--sets 2] [--runs 5] [--seconds N] [--benchmark BENCHMARK.json]")
	os.Exit(2)
}

// fingerprint says what produced a result, so two results are compared only
// when they can be.
type fingerprint struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Clients     int     `json:"clients"`
	GoVersion   string  `json:"go_version"`
	GitSHA      string  `json:"git_sha"`
	Filesystem  string  `json:"db_dir_filesystem"`
	FdatasyncUS float64 `json:"fdatasync_us"`
	KernelP10NS float64 `json:"kernel_p10_ns"` // the box's speed during the run; see rig.kernel_p10_ns
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Ops         int     `json:"ops"`
	Slices      int     `json:"slices"`
	SetupTxns   int     `json:"setup_txns"`
}

// result is what one invocation writes to --out and prints.
type result struct {
	Workload    string             `json:"workload"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Notes       []string           `json:"notes,omitempty"`
	Fingerprint fingerprint        `json:"fingerprint"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	// SliceWallUS is each slice's wall time per op of the untraced run, in
	// run order: what wall_us_per_op is the lower decile of.
	SliceWallUS []float64 `json:"slice_wall_us_per_op"`
	traceFile   string    // where a traced invocation wrote its spans
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated TPC-C input and the harness RNG")
	fs.Float64Var(&cfg.Seconds, "seconds", 12, "size of the run: op counts are a fixed function of it")
	trace := fs.Int("trace", 0, "1 = also make a traced run and report the per-layer metrics")
	fs.StringVar(&cfg.OutDir, "out", "bench/out", "directory for results and traces")
	fs.StringVar(&cfg.TmpDir, "tmp", "bench/.build/db", "directory for temporary databases")
	fs.Parse(args)
	if _, ok := findWorkload(cfg.Workload); !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := checkProcs(runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		return err
	}

	var res *result
	var err error
	if *trace == 0 {
		res, _, err = runOnce(cfg, false, setupRepeats)
	} else {
		res, err = runTraced(cfg)
	}
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, fmt.Sprintf("result-%s-%d.json", cfg.Workload, cfg.Seed)), res); err != nil {
		return err
	}
	printResult(res, *trace != 0)
	return nil
}

// checkProcs refuses a run that would use more threads than the box has
// processors: its timings would measure the scheduler. The client count is
// the constant 1 and has no flag.
func checkProcs(gomaxprocs, nproc int) error {
	if gomaxprocs > nproc || clients > nproc {
		return fmt.Errorf("GOMAXPROCS=%d, clients=%d exceed nproc=%d", gomaxprocs, clients, nproc)
	}
	return nil
}

// setupRepeats: an untraced run sets up this many times and reports the
// median wall time, because one short set-up does not repeat to a tenth on
// a shared box.
const setupRepeats = 3

// runOnce sets up (setups times, keeping the last), runs the measured
// phase, checks the oracle and returns the result with its end-to-end
// metrics, and the rig for its accounting. A traced rig is returned still
// open, for the probes, and the caller discards it; an untraced one is
// already discarded.
func runOnce(cfg config, traced bool, setups int) (*result, *rig, error) {
	def, _ := findWorkload(cfg.Workload)
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		GoVersion: runtime.Version(), GitSHA: gitSHA(), Seed: cfg.Seed, Seconds: cfg.Seconds,
	}
	var r *rig
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.discard()
			runtime.GC() // each set-up starts from a collected heap, so the last one's garbage is not in peak RSS
		}
		var err error
		if r, err = newRig(cfg, traced); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			fp.Filesystem = filesystemOf(r.dir)
			fp.FdatasyncUS = fdatasyncMicros(r.dir)
		}
		w = def.make()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			r.discard()
			return nil, nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fp.SetupTxns = r.txns

	resetPeakRSS() // start the measured phase from a collected heap and its own high-water mark
	r.traceFrom = r.tr.mark()
	base := r.driverCounts
	if err := w.measure(r); err != nil {
		r.discard()
		return nil, nil, fmt.Errorf("%s: measured phase: %w", cfg.Workload, err)
	}
	r.peakRSS = peakRSSMiB()
	r.measured = r.driverCounts.sub(base)
	if err := w.verify(r); err != nil {
		r.fail("oracle: %v", err)
	}
	r.reconcile()

	fp.Ops, fp.Slices = int(r.totalOps()), len(r.slices)
	fp.KernelP10NS = quantile(r.kernelNS, 0.10)
	res := &result{
		Workload: cfg.Workload, Attempted: r.attempted, Failed: r.failed, Notes: r.notes,
		Correct: r.failed == 0, Fingerprint: fp,
		EndToEnd:    r.endToEndMetrics(quantile(setupS, 0.50)),
		SliceWallUS: r.perOpWall(),
	}
	if !traced {
		r.discard()
	}
	return res, r, nil
}

// runTraced makes the untraced run first — end-to-end numbers only ever
// come from it — then a traced run of the same work for the per-layer
// metrics; the difference between the two is the tracing overhead.
func runTraced(cfg config) (*result, error) {
	res, _, err := runOnce(cfg, false, 1)
	if err != nil {
		return nil, err
	}
	tres, r, err := runOnce(cfg, true, 1)
	if err != nil {
		return nil, err
	}
	defer r.discard()
	m := r.perLayerMetrics()
	if err := r.probes(m); err != nil {
		return nil, err
	}
	m["rig.fdatasync_us"] = tres.Fingerprint.FdatasyncUS
	m["rig.trace_overhead_frac"] = div(tres.EndToEnd["wall_us_per_op"]-res.EndToEnd["wall_us_per_op"], res.EndToEnd["wall_us_per_op"])
	res.traceFile = filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
	if err := r.tr.write(res.traceFile); err != nil {
		return nil, err
	}
	res.PerLayer = m
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Notes = append(res.Notes, tres.Notes...)
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult prints every metric by name with its unit, then, as the last
// line, the JSON object the driver reads: the end-to-end metrics of an
// untraced invocation, the per-layer metrics of a traced one.
func printResult(res *result, traced bool) {
	fmt.Printf("workload %s seed %d: correct=%v attempted=%d failed=%d ops=%d slices=%d\n",
		res.Workload, res.Fingerprint.Seed, res.Correct, res.Attempted, res.Failed, res.Fingerprint.Ops, res.Fingerprint.Slices)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	fp, _ := json.Marshal(res.Fingerprint)
	fmt.Printf("fingerprint %s\n", fp)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		for _, d := range perLayer {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
		defs, vals = perLayer, res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{vals[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA is the revision the binary was built from, when the build saw one.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}

// filesystemOf names the filesystem holding dir by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
