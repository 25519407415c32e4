package exp

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/storage/media"
	"repro/internal/tpcc"
)

func tinyScale() tpcc.Config {
	// The database must dwarf what a stock-level query touches for the
	// paper's Figure 7/8 economics to show at test scale (the paper used a
	// 40 GB database): many items, few hot districts.
	return tpcc.Config{Warehouses: 1, DistrictsPerW: 4, CustomersPerD: 10, Items: 2000, Seed: 5}
}

func tinyHistory(t *testing.T, profile media.Profile, imageEvery int) *History {
	t.Helper()
	h, err := BuildHistory(t.TempDir(), HistoryConfig{
		Profile:    profile,
		ImageEvery: imageEvery,
		Txns:       600,
		Clients:    2,
		Span:       50 * time.Minute,
		Scale:      tinyScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestBuildHistory(t *testing.T) {
	h := tinyHistory(t, media.SSD(), 0)
	if h.Result.Commits < 500 {
		t.Fatalf("history commits = %d", h.Result.Commits)
	}
	if !h.EndAt.After(h.LoadedAt.Add(40 * time.Minute)) {
		t.Fatalf("history spans only %v", h.EndAt.Sub(h.LoadedAt))
	}
	if h.Manifest.Pages == 0 {
		t.Fatal("no baseline backup")
	}
}

func TestLoggingOverheadShape(t *testing.T) {
	rows, err := LoggingOverhead(t.TempDir(), 400, 2, []int{0, 100, 10}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 5 shape: more frequent images => more log.
	if !(rows[2].LogBytes > rows[1].LogBytes && rows[1].LogBytes > rows[0].LogBytes) {
		t.Fatalf("log space not increasing with image frequency: %+v", rows)
	}
	// Figure 6 shape ("little impact to the transaction throughput"), in
	// counted work rather than on the wall clock: every arm completes the
	// same transactions, and what images add to the log a transaction writes
	// is bounded — an image every 100 modifications less than doubles it, one
	// every 10 stays under ten times it (measured: 1.17x and 4.1x).
	perCommit := func(r LoggingOverheadRow) float64 { return float64(r.LogBytes) / float64(r.Commits) }
	for _, r := range rows {
		if r.Commits < 360 {
			t.Fatalf("N=%d committed %d of 400 transactions: %+v", r.N, r.Commits, r)
		}
	}
	if got, limit := perCommit(rows[1]), 2*perCommit(rows[0]); got > limit {
		t.Fatalf("N=100 logs %.0f B per commit, more than twice the %.0f B without images", got, limit/2)
	}
	if got, limit := perCommit(rows[2]), 10*perCommit(rows[0]); got > limit {
		t.Fatalf("N=10 logs %.0f B per commit, more than ten times the %.0f B without images", got, limit/10)
	}
}

func TestBackInTimeShapeSSD(t *testing.T) {
	h := tinyHistory(t, media.Scaled(media.SSD(), 1000), 100)
	rows, err := BackInTime(h, []float64{1, 5, 20}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Figure 7 shape: the as-of query beats the full restore across
		// the sweep (sequential bandwidth scaled with database size; see
		// media.Scaled).
		if r.AsOfTotal >= r.Restore {
			t.Fatalf("as-of (%v) not faster than restore (%v) at %gmin", r.AsOfTotal, r.Restore, r.MinutesBack)
		}
	}
	// Figure 11 shape: undo work grows with time traveled.
	if rows[len(rows)-1].RecordsUndone <= rows[0].RecordsUndone {
		t.Fatalf("undo work not increasing with minutes back: %+v", rows)
	}
	// Restore cost is roughly flat: within 2x across the sweep.
	if rows[len(rows)-1].Restore > 2*rows[0].Restore+rows[0].Restore/2 {
		t.Fatalf("restore cost not flat: %v .. %v", rows[0].Restore, rows[len(rows)-1].Restore)
	}
}

func TestBackInTimeSASslowerThanSSD(t *testing.T) {
	ssd := tinyHistory(t, media.Scaled(media.SSD(), 1000), 100)
	sas := tinyHistory(t, media.Scaled(media.SAS(), 1000), 100)
	rs, err := BackInTime(ssd, []float64{10}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := BackInTime(sas, []float64{10}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Figures 7 vs 8: the as-of query phase — dominated by random log
	// reads along per-page chains — is much slower on SAS. (Snapshot
	// creation is sequential-scan bound and differs less, as in the
	// paper's Figures 9/10.)
	if ra[0].SnapQuery < 2*rs[0].SnapQuery {
		t.Fatalf("SAS as-of query (%v) should be much slower than SSD (%v)", ra[0].SnapQuery, rs[0].SnapQuery)
	}
}

func TestConcurrentExperiment(t *testing.T) {
	res, err := Concurrent(t.TempDir(), 600, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// §6.3 shape, in counted work rather than as a wall-clock ratio: with the
	// as-of loop mounting snapshots beside them the writers complete the same
	// transactions as without it, and the loop completes snapshots.
	if res.BaselineCommits < 540 || res.WithAsOfCommits < 540 {
		t.Fatalf("writers committed %d without and %d beside the as-of loop, of 600", res.BaselineCommits, res.WithAsOfCommits)
	}
	if res.Snapshots == 0 {
		t.Fatal("as-of loop never completed a snapshot")
	}
}

func TestCrossoverShape(t *testing.T) {
	h := tinyHistory(t, media.Scaled(media.SAS(), 1000), 100)
	rows, err := Crossover(h, []float64{0.02, 1.0}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// §6.4 shape: as-of cost grows with the fraction accessed.
	if rows[1].AsOf <= rows[0].AsOf {
		t.Fatalf("as-of cost not increasing with data accessed: %+v", rows)
	}
	// The small-fraction case must favor as-of.
	if rows[0].Winner != "as-of" {
		t.Fatalf("small access should favor as-of: %+v", rows[0])
	}
}

func TestTableFormatting(t *testing.T) {
	var sb strings.Builder
	table(&sb, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Fatalf("table output: %q", out)
	}
}
