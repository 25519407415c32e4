// Command asofbench regenerates the paper's evaluation (§6): every figure
// and experiment, printed as the series the figures plot.
//
// Usage:
//
//	asofbench -fig all                # everything (a few minutes)
//	asofbench -fig 5 -txns 2000      # Figures 5+6 (one run produces both)
//	asofbench -fig 7                  # Figure 7 (+9/11 data) on scaled SSD
//	asofbench -fig 8                  # Figure 8 (+10) on scaled SAS
//	asofbench -fig 63                 # §6.3 concurrent as-of impact
//	asofbench -fig 64                 # §6.4 crossover analysis
//	asofbench -fig commit -committers 1,2,4  # durable commit throughput
//	asofbench -fig repl               # primary → R1 → R2 cascade, routed reads
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/storage/media"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, 10, 11, 63, 64, commit, repl or all")
		txns    = flag.Int("txns", 3000, "transactions of benchmark history")
		clients = flag.Int("clients", 4, "concurrent benchmark clients")
		items   = flag.Int("items", 6000, "TPC-C items (database size driver)")
		scale   = flag.Int64("mediascale", 1000, "sequential-bandwidth scale-down for Figs 7-11 (see DESIGN.md)")
		workdir = flag.String("dir", "", "working directory (default: temp)")

		// -fig commit: durable commit throughput of the group-commit pipeline.
		committers = flag.String("committers", "8", "comma-separated committer counts for -fig commit (e.g. 1,2,4 sweeps them in one process)")
		commitTxns = flag.Int("committxns", 50000, "transactions for -fig commit")
		obsOff     = flag.Bool("obsoff", false, "disable the metrics registry for -fig commit (the observability-overhead A/B arm)")

		// Log durability: every engine any figure opens uses this policy.
		syncMode = flag.String("sync", "none", "log force durability: none | fdatasync")
	)
	flag.Parse()
	syncPolicy, err := wal.ParseSyncPolicy(*syncMode)
	if err != nil {
		fatal(err)
	}
	commitCounts, err := parseCounts(*committers)
	if err != nil {
		fatal(err)
	}
	exp.LogSync = syncPolicy

	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "asofbench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	cfg := tpcc.DefaultConfig()
	cfg.Items = *items

	wants := func(ids ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, id := range ids {
			if *fig == id {
				return true
			}
		}
		return false
	}

	if wants("5", "6") {
		fmt.Printf("== Figures 5 & 6: logging overhead sweep (%d txns x %d image frequencies, real time) ==\n",
			*txns/2, len(exp.DefaultImageSweep))
		if _, err := exp.LoggingOverhead(dir+"/fig56", *txns/2, *clients, exp.DefaultImageSweep, os.Stdout); err != nil {
			fatal(err)
		}
	}

	backInTime := func(profile media.Profile, label string) {
		fmt.Printf("\n== %s: building %d-txn history on %s media ==\n", label, *txns, profile.Name)
		h, err := exp.BuildHistory(dir+"/"+profile.Name, exp.HistoryConfig{
			Profile:    profile,
			ImageEvery: 100,
			Txns:       *txns,
			Clients:    *clients,
			Span:       50 * time.Minute,
			Scale:      cfg,
		})
		if err != nil {
			fatal(err)
		}
		defer h.Close()
		fmt.Printf("history: %v; db %.1f MiB, log %.1f MiB\n", h.Result,
			float64(h.Manifest.Pages)*8192/(1<<20), float64(h.DB.Log().Size())/(1<<20))
		if _, err := exp.BackInTime(h, exp.DefaultMinutesBack, os.Stdout); err != nil {
			fatal(err)
		}
	}

	if wants("7", "9", "11") {
		backInTime(media.Scaled(media.SSD(), *scale), "Figures 7/9/11")
	}
	if wants("8", "10") {
		backInTime(media.Scaled(media.SAS(), *scale), "Figures 8/10")
	}

	if wants("63") {
		fmt.Printf("\n== §6.3: concurrent as-of query impact (%d txns, %d clients) ==\n", *txns, *clients)
		if _, err := exp.Concurrent(dir+"/sec63", *txns, *clients, os.Stdout); err != nil {
			fatal(err)
		}
	}

	if wants("repl") {
		fmt.Printf("\n== Replication cascade: primary → R1 → R2, session-routed reads (%d txns, %d clients) ==\n",
			*txns, *clients)
		if _, err := exp.ReplicationCascade(dir+"/cascade", *txns, *clients, os.Stdout); err != nil {
			fatal(err)
		}
	}

	if wants("commit") {
		fmt.Printf("\n== Commit pipeline: durable commit throughput (%d txns/run, sync=%s) ==\n",
			*commitTxns, *syncMode)
		for _, n := range commitCounts {
			opts := exp.CommitOptions{Committers: n, Txns: *commitTxns, DisableObs: *obsOff}
			fmt.Printf("c=%d: ", n)
			if _, err := exp.CommitThroughput(fmt.Sprintf("%s/commit-%d", dir, n), opts, os.Stdout); err != nil {
				fatal(err)
			}
		}
	}

	if wants("64") {
		fmt.Printf("\n== §6.4: crossover analysis (native SAS media) ==\n")
		h, err := exp.BuildHistory(dir+"/sec64", exp.HistoryConfig{
			Profile:    media.SAS(),
			ImageEvery: 100,
			Txns:       *txns,
			Clients:    *clients,
			Span:       50 * time.Minute,
			Scale:      cfg,
		})
		if err != nil {
			fatal(err)
		}
		defer h.Close()
		if _, err := exp.Crossover(h, nil, os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad committer count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asofbench:", err)
	os.Exit(1)
}
