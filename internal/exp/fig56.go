package exp

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/tpcc"
	"repro/internal/vclock"
)

// LoggingOverheadRow is one point of Figures 5 and 6: the benchmark run
// with full page images logged every N modifications.
type LoggingOverheadRow struct {
	N          int     // image frequency (0 = extensions only, no images)
	LogBytes   int64   // Figure 5: transaction log space used
	SpaceRatio float64 // log space relative to the N=0 run
	Tpm        float64 // Figure 6: throughput, committed txns per minute
	TpmRatio   float64 // throughput relative to the N=0 run
	Commits    int64
}

// DefaultImageSweep is the N sweep reported by Figures 5 and 6
// (0 = no page images, then decreasing N = more frequent images).
var DefaultImageSweep = []int{0, 1000, 100, 10}

// LoggingOverhead runs the fixed TPC-C workload once per image frequency N
// and reports log space (Figure 5) and throughput (Figure 6). Runs use
// uncharged media (RAM speed): Figure 6 measures real CPU-bound throughput
// and Figure 5 exact log bytes.
func LoggingOverhead(dir string, txns, clients int, sweep []int, w io.Writer) ([]LoggingOverheadRow, error) {
	if len(sweep) == 0 {
		sweep = DefaultImageSweep
	}
	scale := tpcc.DefaultConfig()
	var rows []LoggingOverheadRow
	for _, n := range sweep {
		clock := vclock.New(time.Time{})
		db, err := engine.Open(filepath.Join(dir, fmt.Sprintf("n%d", n)), engine.Options{
			SyncPolicy:      LogSync,
			Clock:           clock,
			PageImageEvery:  n,
			BufferFrames:    2048,
			CheckpointEvery: 4 << 20,
		})
		if err != nil {
			return nil, err
		}
		if err := tpcc.Load(db, scale); err != nil {
			db.Close()
			return nil, err
		}
		logStart := db.Log().Size()
		d := tpcc.NewDriver(db, scale, clock)
		res, err := d.Run(txns, clients)
		if err != nil {
			db.Close()
			return nil, err
		}
		rows = append(rows, LoggingOverheadRow{
			N:        n,
			LogBytes: db.Log().Size() - logStart,
			Tpm:      res.Tpm(),
			Commits:  res.Commits,
		})
		db.Close()
	}
	base := rows[0]
	for i := range rows {
		rows[i].SpaceRatio = float64(rows[i].LogBytes) / float64(base.LogBytes)
		rows[i].TpmRatio = rows[i].Tpm / base.Tpm
	}
	printLoggingOverhead(w, rows)
	return rows, nil
}

func printLoggingOverhead(w io.Writer, rows []LoggingOverheadRow) {
	if w == nil {
		return
	}
	fmt.Fprintln(w, "\nFigure 5 — transaction log space vs page-image frequency N")
	fmt.Fprintln(w, "Figure 6 — throughput vs page-image frequency N")
	var out [][]string
	for _, r := range rows {
		label := "off"
		if r.N > 0 {
			label = fmt.Sprintf("every %d", r.N)
		}
		out = append(out, []string{
			label,
			fmt.Sprintf("%.2f MiB", float64(r.LogBytes)/(1<<20)),
			fmt.Sprintf("%.2fx", r.SpaceRatio),
			fmt.Sprintf("%.0f", r.Tpm),
			fmt.Sprintf("%.2fx", r.TpmRatio),
		})
	}
	table(w, []string{"page images", "log space (Fig 5)", "vs off", "tpm (Fig 6)", "vs off"}, out)
}
