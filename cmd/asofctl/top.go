package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	asofdb "repro"
)

// metricsDump opens the database and writes a one-shot Prometheus text dump
// of its registry to stdout — the scrape surface without the listener, for
// cron jobs and incident shell sessions. A closing comment line sums up what
// the open's crash recovery read.
func metricsDump(dir string) {
	db, err := asofdb.Open(dir, asofdb.Options{})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if err := db.Obs().WritePrometheus(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println(recoverySummary(db.Obs().Snapshot()))
}

// recoverySummary is a Prometheus comment line on crash recovery's redo: the
// pages it read from the data file, the device reads that carried them,
// pages per read (runs read ahead carry several) and the pages its evictions
// wrote back.
func recoverySummary(snap map[string]float64) string {
	pages, reads := snap["engine_recovery_pages_read_total"], snap["engine_recovery_read_ios_total"]
	perRead := 0.0
	if reads > 0 {
		perRead = pages / reads
	}
	return fmt.Sprintf("# recovery: %.0f pages read in %.0f reads, %.1f pages/read, %.0f written back",
		pages, reads, perRead, snap["engine_recovery_pages_written_total"])
}

// scrapeMetrics fetches one /metrics.json snapshot from a node started with
// -obs: flat keys (`name{labels}`; histograms expose :count/:sum/:p50/:p99).
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: %s", resp.Status)
	}
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// runTop drives the live terminal view: scrape, render, sleep. iterations<=0
// runs until the scrape fails (node gone); tests pass a small count and a
// buffer. All the formatting lives in renderTop, which is pure.
func runTop(addr string, iterations int, every time.Duration, w io.Writer) error {
	var prev map[string]float64
	var prevAt time.Time
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(every)
		}
		cur, err := scrapeMetrics(addr)
		if err != nil {
			return err
		}
		now := time.Now()
		dt := 0.0
		if prev != nil {
			dt = now.Sub(prevAt).Seconds()
		}
		fmt.Fprint(w, "\033[H\033[2J")
		fmt.Fprintf(w, "asofctl top — %s — %s\n\n", addr, now.UTC().Format(time.RFC3339))
		fmt.Fprint(w, renderTop(prev, cur, dt))
		prev, prevAt = cur, now
	}
	return nil
}

// renderTop formats one frame of the live view from two consecutive metric
// snapshots (prev may be nil on the first frame; dt is the seconds between
// them). Pure: no clock, no I/O — the unit tests feed it synthetic snapshots.
func renderTop(prev, cur map[string]float64, dt float64) string {
	rate := func(key string) float64 {
		if prev == nil || dt <= 0 {
			return 0
		}
		return (cur[key] - prev[key]) / dt
	}
	var b strings.Builder
	fmt.Fprintf(&b, "commits  %9.1f/s  p50 %-8s p99 %-8s  active txns %.0f\n",
		rate("engine_commit_seconds:count"),
		fmtSeconds(cur["engine_commit_seconds:p50"]), fmtSeconds(cur["engine_commit_seconds:p99"]),
		cur["engine_active_txns"])
	fmt.Fprintf(&b, "fsyncs   %9.1f/s  p50 %-8s p99 %-8s  wal %s\n",
		rate("wal_flushes_total"),
		fmtSeconds(cur["wal_fsync_seconds:p50"]), fmtSeconds(cur["wal_fsync_seconds:p99"]),
		fmtBytes(cur["wal_size_bytes"]))
	fmt.Fprintf(&b, "appends  %9.1f/s  %s/s\n",
		rate("wal_appends_total"), fmtBytes(rate("wal_append_bytes_total")))
	// share is part as a percentage of part+rest, 0 when both are 0.
	share := func(part, rest float64) float64 {
		if part+rest <= 0 {
			return 0
		}
		return 100 * part / (part + rest)
	}
	fmt.Fprintf(&b, "pool     hit %5.1f%%  evict %8.1f/s  writeback %8.1f/s\n",
		share(cur["buffer_pool_hits_total"], cur["buffer_pool_misses_total"]),
		rate("buffer_pool_evictions_total"), rate("buffer_pool_writebacks_total"))
	if v, ok := cur["asof_snapshot_mounts_total"]; ok {
		perBatch := 0.0
		if n := cur["asof_batch_prepares_total"]; n > 0 {
			perBatch = cur["asof_batch_pages_total"] / n
		}
		perWrite := 0.0
		if n := cur["sidefile_write_ios_total"]; n > 0 {
			perWrite = cur["sidefile_pages_written_total"] / n
		}
		fmt.Fprintf(&b, "as-of    open %.0f  mounts %.0f  chain-walk %8.1f rec/s  batch %.1f pages  shared %5.1f%%  side %.1f pages/write  log-cache hit %5.1f%%\n",
			cur["asof_snapshots_open"], v, rate("asof_chainwalk_records_total"), perBatch,
			share(cur["asof_pages_shared_total"], cur["asof_chainwalk_pages_total"]), perWrite,
			share(cur["wal_blockcache_hits_total"], cur["wal_blockcache_misses_total"]))
	}
	// Replication, both roles: a primary shows per-subscriber lag, a standby
	// its own apply progress against the upstream.
	if _, ok := cur["repl_apply_bytes_total"]; ok {
		fmt.Fprintf(&b, "standby  apply %s/s  lag %s\n",
			fmtBytes(rate("repl_apply_bytes_total")), fmtBytes(cur["repl_lag_bytes"]))
	}
	var lagKeys []string
	for k := range cur {
		if strings.HasPrefix(k, "repl_subscriber_lag_bytes{") {
			lagKeys = append(lagKeys, k)
		}
	}
	sort.Strings(lagKeys)
	for _, k := range lagKeys {
		id := strings.TrimSuffix(strings.TrimPrefix(k, "repl_subscriber_lag_bytes{id="), "}")
		fmt.Fprintf(&b, "replica  %s  lag %s  shipped %s/s\n",
			id, fmtBytes(cur[k]), fmtBytes(rate("repl_ship_bytes_total")))
	}
	return b.String()
}

// fmtSeconds renders a histogram quantile (in seconds) at µs/ms/s scale.
func fmtSeconds(v float64) string {
	switch {
	case v <= 0:
		return "-"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2gms", v*1e3)
	default:
		return fmt.Sprintf("%.2gs", v)
	}
}

// fmtBytes renders a byte count (or rate) at B/KiB/MiB/GiB scale.
func fmtBytes(v float64) string {
	switch {
	case v < 1<<10:
		return fmt.Sprintf("%.0fB", v)
	case v < 1<<20:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	case v < 1<<30:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", v/(1<<30))
	}
}
