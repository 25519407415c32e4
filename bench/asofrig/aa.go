package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the rig reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// cmdAA runs the same code twice — `sets` sets of `runs` untraced runs per
// workload, seeds 1..runs in every set, sets interleaved — and prints, per
// workload and end-to-end metric, the set medians, their difference, the
// pooled range, and the widest set's quartile spread across its seeds (IQR ÷
// median) beside the bound. It fails when two sets of identical code
// disagree, or one set's seeds spread (setup_s excepted), by more than the
// bound: such a metric is too noisy to gate on at that bound.
func cmdAA(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	sets := fs.Int("sets", 2, "number of sets")
	runs := fs.Int("runs", 5, "runs per set and workload (seeds 1..runs)")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file holding the bounds")
	seconds := fs.Float64("seconds", 0, "run size (default: run_seconds of the benchmark file)")
	only := fs.String("workload", "", "run only this workload")
	fs.Parse(args)
	if *sets < 2 || *runs < 1 {
		return fmt.Errorf("aa needs at least 2 sets and 1 run")
	}
	bf, err := readBenchmarkFile(*benchPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][metric][set] = one value per seed
	values := map[string]map[string][][]float64{}
	for seed := 1; seed <= *runs; seed++ {
		for set := 0; set < *sets; set++ {
			for _, w := range workloads {
				if *only != "" && w.name != *only {
					continue
				}
				fmt.Fprintf(os.Stderr, "aa: seed %d set %c %s\n", seed, 'A'+set, w.name)
				m, err := runChild(self, w.name, seed, *seconds)
				if err != nil {
					return err
				}
				if values[w.name] == nil {
					values[w.name] = map[string][][]float64{}
				}
				for name, v := range m {
					if values[w.name][name] == nil {
						values[w.name][name] = make([][]float64, *sets)
					}
					values[w.name][name][set] = append(values[w.name][name][set], v)
				}
			}
		}
	}

	fmt.Printf("%-20s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "range", "IQR", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			per := values[w.name][e.Name]
			if per == nil {
				continue
			}
			var pooled []float64
			lo, hi := quantile(per[0], 0.5), quantile(per[0], 0.5)
			spread := 0.0 // the widest set's quartile spread
			for _, set := range per {
				pooled = append(pooled, set...)
				med := quantile(set, 0.5)
				if med < lo {
					lo = med
				}
				if med > hi {
					hi = med
				}
				sorted := append([]float64(nil), set...)
				sort.Float64s(sorted)
				if s := iqrShare(sorted); s > spread {
					spread = s
				}
			}
			sort.Float64s(pooled)
			mid := quantile(pooled, 0.5)
			diff := div(hi-lo, lo)
			rng := div(pooled[len(pooled)-1]-pooled[0], mid)
			verdict := "ok"
			// setup_s is held to the median rule only: one short set-up per
			// process spreads more than anything a bound could usefully gate.
			if diff > e.Bound || (spread > e.Bound && e.Name != "setup_s") {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-20s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, e.Name, quantile(per[0], 0.5), quantile(per[1], 0.5),
				100*diff, 100*rng, 100*spread, 100*e.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) differ between sets of identical code, or spread across seeds, by more than their bound", failed)
	}
	return nil
}

// runChild runs one untraced run in a fresh process, so peak RSS and heap
// state are each run's own, and returns its end-to-end metrics.
func runChild(self, workload string, seed int, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "run", "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: incorrect run (failed=%d)", workload, seed, res.Failed)
	}
	m := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method). sorted must be in order.
func iqrShare(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return div(q(3)-q(1), q(2))
}
