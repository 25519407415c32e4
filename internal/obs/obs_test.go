package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if h.Quantile(0.5) != 0 || h.Bounds() != nil || h.BucketCounts() != nil {
		t.Fatal("nil histogram reads must be empty")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.DurationHistogram("x", "") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.CounterFunc("x", "", func() int64 { return 1 })
	r.SetCollect("x", "", "gauge", nil)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil || r.Names() != nil {
		t.Fatal("nil registry reads must be empty")
	}
	sp := StartSpan(nil, nil)
	if sp.End() != 0 {
		t.Fatal("inert span must report zero")
	}
}

func TestHistogramBucketsExact(t *testing.T) {
	h := NewDurationHistogram(
		int64(1*time.Millisecond), int64(5*time.Millisecond), int64(10*time.Millisecond))
	h.ObserveDuration(500 * time.Microsecond) // bucket 0
	h.ObserveDuration(1 * time.Millisecond)   // bucket 0 (le is inclusive)
	h.ObserveDuration(3 * time.Millisecond)   // bucket 1
	h.ObserveDuration(10 * time.Millisecond)  // bucket 2
	h.ObserveDuration(1 * time.Second)        // +Inf
	want := []int64{2, 1, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	wantSum := int64(500*time.Microsecond + 1*time.Millisecond + 3*time.Millisecond + 10*time.Millisecond + 1*time.Second)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
	// p50 of 5 obs → rank 3 → bucket 1 upper bound (5ms); p99 → rank 5 →
	// +Inf bucket → last finite bound (10ms).
	if q := h.Quantile(0.5); q != int64(5*time.Millisecond) {
		t.Fatalf("p50 = %v, want 5ms", time.Duration(q))
	}
	if q := h.Quantile(0.99); q != int64(10*time.Millisecond) {
		t.Fatalf("p99 = %v, want 10ms", time.Duration(q))
	}
}

func TestSpanOnVirtualClock(t *testing.T) {
	mock := clock.NewMock(time.Unix(1000, 0))
	h := NewDurationHistogram(int64(1*time.Millisecond), int64(5*time.Millisecond))
	sp := StartSpan(mock, h)
	mock.Advance(3 * time.Millisecond)
	if d := sp.End(); d != 3*time.Millisecond {
		t.Fatalf("span measured %v, want 3ms", d)
	}
	got := h.BucketCounts()
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("buckets = %v, want [0 1 0]", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "hits", L("shard", "0"))
	b := r.Counter("hits_total", "hits", L("shard", "0"))
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	c := r.Counter("hits_total", "hits", L("shard", "1"))
	if a == c {
		t.Fatal("distinct labels must return distinct handles")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("wal_appends_total", "records appended").Add(7)
	r.Gauge("engine_active_txns", "open transactions").Set(3)
	h := r.DurationHistogram("wal_fsync_seconds", "flush latency")
	h.ObserveDuration(3 * time.Millisecond)
	r.CounterFunc("wal_flushes_total", "log forces", func() int64 { return 42 })
	r.SetCollect("repl_subscriber_lag_bytes", "per-subscriber lag", "gauge",
		func(emit func(labels []Label, v float64)) {
			emit([]Label{L("id", "standby-1")}, 128)
		})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE wal_appends_total counter",
		"wal_appends_total 7",
		"# TYPE engine_active_txns gauge",
		"engine_active_txns 3",
		"# TYPE wal_fsync_seconds histogram",
		`wal_fsync_seconds_bucket{le="0.005"} 1`,
		`wal_fsync_seconds_bucket{le="+Inf"} 1`,
		"wal_fsync_seconds_sum 0.003",
		"wal_fsync_seconds_count 1",
		"wal_flushes_total 42",
		`repl_subscriber_lag_bytes{id="standby-1"} 128`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket invariant: the 2.5ms bucket precedes 3ms, so it
	// must read 0 while 5ms reads 1.
	if !strings.Contains(out, `wal_fsync_seconds_bucket{le="0.0025"} 0`) {
		t.Fatalf("expected empty 2.5ms bucket:\n%s", out)
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Gauge("g", "", L("k", "v")).Set(9)
	h := r.DurationHistogram("h_seconds", "")
	h.ObserveDuration(2 * time.Millisecond)
	s := r.Snapshot()
	if s["c_total"] != 2 {
		t.Fatalf("c_total = %v", s["c_total"])
	}
	if s[`g{k="v"}`] != 9 {
		t.Fatalf("labeled gauge = %v", s[`g{k="v"}`])
	}
	if s["h_seconds:count"] != 1 {
		t.Fatalf("hist count = %v", s["h_seconds:count"])
	}
	if s["h_seconds:p50"] != 0.0025 {
		t.Fatalf("hist p50 = %v, want 0.0025", s["h_seconds:p50"])
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe_total", "").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "probe_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics.json", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap["probe_total"] != 1 {
		t.Fatalf("/metrics.json probe_total = %v", snap["probe_total"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewDurationHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(3 * time.Millisecond))
	}
}
