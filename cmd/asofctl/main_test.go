package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	asofdb "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

// TestSubscriberStatusJSONRoundTrip covers the repl-status wire payload:
// every lag field and the nested Downstream tree must survive the marshal /
// unmarshal pair that connects Shipper.StatusJSON to replStatus.
func TestSubscriberStatusJSONRoundTrip(t *testing.T) {
	in := []repl.SubscriberStatus{
		{
			ID:             1,
			PrimaryDurable: 4096,
			Shipped:        4096,
			Applied:        2048,
			ReplicaDurable: 4096,
			LagBytes:       2048,
			Retained:       128,
			LastCommitAt:   time.Unix(0, 1700000000000000000).UTC(),
			LagSeconds:     1.5,
			Connected:      3 * time.Second,
			BytesShipped:   4095,
			Batches:        7,
			Timeline:       wal.TimelineID(2),
			Downstream: []repl.SubscriberStatus{
				{
					ID:             1,
					PrimaryDurable: 2048,
					Shipped:        2048,
					Applied:        2048,
					ReplicaDurable: 2048,
					Idle:           true,
					Timeline:       wal.TimelineID(2),
				},
			},
		},
		{ID: 2, PrimaryDurable: 4096, Idle: true},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out []repl.SubscriberStatus
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	if out[0].Downstream[0].ID != 1 || !out[0].Downstream[0].Idle {
		t.Fatalf("downstream tree lost: %+v", out[0].Downstream)
	}
	// The idle hop must omit lag_seconds entirely (zero value), and the
	// lagging hop must carry it — asofctl renders "idle" vs "1.5s" off this.
	if !strings.Contains(string(b), `"lag_seconds":1.5`) {
		t.Fatalf("lag_seconds missing from payload: %s", b)
	}
}

// TestRenderTop feeds renderTop two synthetic snapshots one second apart and
// checks the computed rates and quantiles, with no listener involved.
func TestRenderTop(t *testing.T) {
	prev := map[string]float64{
		"engine_commit_seconds:count": 100,
		"wal_appends_total":           1000,
		"wal_append_bytes_total":      1 << 20,
		"repl_ship_bytes_total":       0,
	}
	cur := map[string]float64{
		"engine_commit_seconds:count":       150,
		"engine_commit_seconds:p50":         0.0025,
		"engine_commit_seconds:p99":         0.01,
		"engine_active_txns":                3,
		"wal_appends_total":                 1500,
		"wal_append_bytes_total":            3 << 20,
		"wal_fsync_seconds:p50":             0.0002,
		"wal_fsync_seconds:p99":             0.005,
		"buffer_pool_hits_total":            900,
		"buffer_pool_misses_total":          100,
		"asof_snapshots_open":               1,
		"asof_snapshot_mounts_total":        4,
		"asof_batch_prepares_total":         8,
		"asof_batch_pages_total":            100,
		"asof_chainwalk_pages_total":        120,
		"asof_pages_shared_total":           40,
		"sidefile_write_ios_total":          10,
		"sidefile_pages_written_total":      35,
		"wal_blockcache_hits_total":         300,
		"wal_blockcache_misses_total":       100,
		`repl_subscriber_lag_bytes{id="1"}`: 2048,
		"repl_ship_bytes_total":             4 << 20,
	}
	out := renderTop(prev, cur, 1.0)
	for _, want := range []string{
		"commits       50.0/s",
		"p50 2.5ms",
		"p99 10ms",
		"active txns 3",
		"appends      500.0/s",
		"2.0MiB/s",
		"hit  90.0%",
		"open 1",
		"mounts 4",
		"batch 12.5 pages",
		"shared  25.0%",
		"side 3.5 pages/write",
		"log-cache hit  75.0%",
		"replica  \"1\"  lag 2.0KiB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTop output missing %q:\n%s", want, out)
		}
	}
	// First frame: no rates, but gauges and quantiles still render.
	first := renderTop(nil, cur, 0)
	if !strings.Contains(first, "commits        0.0/s") || !strings.Contains(first, "p99 10ms") {
		t.Errorf("first frame render wrong:\n%s", first)
	}
}

// TestRecoverySummary: the metrics dump's recovery line divides the pages
// redo read by the device reads that carried them, and names the pages its
// evictions wrote back.
func TestRecoverySummary(t *testing.T) {
	got := recoverySummary(map[string]float64{
		"engine_recovery_pages_read_total":    314,
		"engine_recovery_read_ios_total":      100,
		"engine_recovery_pages_written_total": 55,
	})
	if want := "# recovery: 314 pages read in 100 reads, 3.1 pages/read, 55 written back"; got != want {
		t.Fatalf("recoverySummary = %q, want %q", got, want)
	}
	if got := recoverySummary(map[string]float64{}); got != "# recovery: 0 pages read in 0 reads, 0.0 pages/read, 0 written back" {
		t.Fatalf("recoverySummary with no recovery = %q", got)
	}
}

// TestTopScrapesLiveEngine starts an engine with the obs listener enabled
// and drives runTop against it end to end: two frames over HTTP, rendering
// real registry contents.
func TestTopScrapesLiveEngine(t *testing.T) {
	db, err := asofdb.Open(t.TempDir(), asofdb.Options{ObsListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr := db.ObsAddr()
	if addr == "" {
		t.Fatal("no obs listener address")
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateTable(&asofdb.Schema{
		Name:    "t",
		Columns: []asofdb.Column{{Name: "id", Kind: asofdb.KindInt64}},
		KeyCols: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := runTop(addr, 2, time.Millisecond, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "asofctl top — "+addr) {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "commits") || !strings.Contains(out, "fsyncs") {
		t.Fatalf("missing sections:\n%s", out)
	}
	// The committed transaction must be visible in the scraped quantiles
	// frame (count>=1 renders a non-"-" p99 once observations exist).
	snap, err := scrapeMetrics(addr)
	if err != nil {
		t.Fatal(err)
	}
	if snap["engine_commit_seconds:count"] < 1 {
		t.Fatalf("commit count not scraped: %v", snap["engine_commit_seconds:count"])
	}
	if snap["wal_appends_total"] < 1 {
		t.Fatalf("wal appends not scraped: %v", snap["wal_appends_total"])
	}
}
