package wal

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// TestFsyncHistogramExactOnVirtualClock pins the fsync-latency histogram's
// contents exactly: the flush span rides the manager's injected clock, and
// the syncHook advances a Mock by precisely 3ms per log force, so after N
// forces the 5ms bucket must hold exactly N observations and every other
// bucket exactly zero.
func TestFsyncHistogramExactOnVirtualClock(t *testing.T) {
	m, err := OpenStore(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mock := clock.NewMock(time.Unix(1_000_000, 0))
	m.SetClock(mock)
	m.syncHook = func() { mock.Advance(3 * time.Millisecond) }
	reg := obs.NewRegistry()
	m.RegisterObs(reg)

	const flushes = 7
	for i := 0; i < flushes; i++ {
		r := &Record{Type: TypeInsert, PageID: 1, Slot: uint16(i), NewData: []byte("obs")}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}

	h := m.metrics.FsyncSeconds
	if h.Count() != flushes {
		t.Fatalf("fsync count = %d, want %d", h.Count(), flushes)
	}
	if got, want := h.Sum(), int64(flushes*3*time.Millisecond); got != want {
		t.Fatalf("fsync sum = %v, want %v", time.Duration(got), time.Duration(want))
	}
	bounds, counts := h.Bounds(), h.BucketCounts()
	for i, c := range counts {
		want := int64(0)
		if i < len(bounds) && bounds[i] == int64(5*time.Millisecond) {
			want = flushes // 3ms lands exactly in the (2.5ms, 5ms] bucket
		}
		if c != want {
			t.Fatalf("bucket[%d] = %d, want %d (counts %v)", i, c, want, counts)
		}
	}

	// The same exactness must survive the Prometheus rendering: cumulative
	// buckets are 0 through le=2.5ms and N from le=5ms onward.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`wal_fsync_seconds_bucket{le="0.0025"} 0`,
		`wal_fsync_seconds_bucket{le="0.005"} 7`,
		`wal_fsync_seconds_bucket{le="+Inf"} 7`,
		`wal_fsync_seconds_sum 0.021`,
		`wal_fsync_seconds_count 7`,
		`wal_appends_total 7`,
		`wal_flushes_total 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestWalMetricsCoverAppendPaths exercises the append, flush, rotation and
// truncation counters end to end against a tiny segmented store, on the
// "mutex" arm: the mutex-guarded tail, now the one append path.
func TestWalMetricsCoverAppendPaths(t *testing.T) {
	t.Run("mutex", func(t *testing.T) {
		m, err := OpenStore(t.TempDir(), Config{SegmentBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		reg := obs.NewRegistry()
		m.RegisterObs(reg)

		var last LSN
		payload := make([]byte, 256)
		for i := 0; i < 64; i++ {
			r := &Record{Type: TypeInsert, PageID: 1, Slot: uint16(i), NewData: payload}
			if last, err = m.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Flush(last); err != nil {
			t.Fatal(err)
		}

		mt := m.metrics
		if got := mt.Appends.Load(); got != 64 {
			t.Fatalf("appends = %d, want 64", got)
		}
		if mt.AppendBytes.Load() < 64*256 {
			t.Fatalf("append bytes = %d, want >= %d", mt.AppendBytes.Load(), 64*256)
		}
		if mt.FlushBytes.Count() == 0 {
			t.Fatal("flush batch histogram recorded nothing")
		}
		// 64 × ~270B frames overflow several 4KiB segments.
		if mt.Rotations.Load() == 0 {
			t.Fatal("no segment rotations recorded")
		}

		if err := m.Truncate(last); err != nil {
			t.Fatal(err)
		}
		if mt.Truncations.Load() != 1 {
			t.Fatalf("truncations = %d, want 1", mt.Truncations.Load())
		}
		if mt.SegmentsDropped.Load() == 0 {
			t.Fatal("truncation dropped no segments")
		}
	})
}

// TestBlockCacheCounters reads a chain cold and then warm and checks the
// scrape-time hit and miss counters: a demand lookup that goes to disk is a
// miss, one the shared cache serves is a hit, and the readahead probe for
// the block below counts as neither.
func TestBlockCacheCounters(t *testing.T) {
	m, err := OpenStore(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	reg := obs.NewRegistry()
	m.RegisterObs(reg)

	payload := make([]byte, 1024)
	var lsns []LSN
	for i := 0; i < 6*readBlockSize/1024; i++ { // about six blocks
		lsn, err := m.Append(&Record{Type: TypeInsert, PageID: 1, Slot: uint16(i), NewData: payload})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := m.Flush(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	walk := func() {
		rdr := m.ChainReader()
		defer rdr.Close()
		for i := len(lsns) - 1; i >= 0; i-- {
			if _, err := rdr.Read(lsns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	cold := reg.Snapshot()
	if cold["wal_blockcache_hits_total"] != 0 {
		t.Fatalf("cold walk counted %v hits", cold["wal_blockcache_hits_total"])
	}
	// Every physical read was a demand miss; each brought the block below
	// along, so about half the blocks were never looked up at all.
	if got, reads := cold["wal_blockcache_misses_total"], cold["wal_undo_reads_total"]; got != reads || reads < 3 {
		t.Fatalf("cold walk: %v misses, %v physical reads", got, reads)
	}
	walk()
	warm := reg.Snapshot()
	// Only the partial block at the growing end is never cached.
	if again := warm["wal_undo_reads_total"] - cold["wal_undo_reads_total"]; again > 1 {
		t.Fatalf("warm walk read from disk %v times", again)
	}
	if warm["wal_blockcache_hits_total"] < 5 {
		t.Fatalf("warm walk counted %v hits", warm["wal_blockcache_hits_total"])
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wal_blockcache_hits_total ", "wal_blockcache_misses_total "} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prometheus output missing %q", want)
		}
	}
}
