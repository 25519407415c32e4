// Package exp implements the paper's performance evaluation (§6): one
// runner per figure plus the §6.3 concurrent experiment and the §6.4
// crossover analysis. Figures 5-6 measure real CPU-bound throughput and
// exact log volume; Figures 7-11 measure I/O-bound costs on simulated SSD
// and SAS media using a virtual clock, so runs are fast and deterministic
// while preserving the shapes the paper reports.
package exp

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/storage/media"
	"repro/internal/tpcc"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// LogSync is the log-force durability policy applied to every engine the
// experiment harness opens (asofbench -sync fdatasync): under wal.SyncData
// each group-commit flush really hits the device.
var LogSync wal.SyncPolicy

// HistoryConfig controls the benchmark history built for Figures 7-11.
type HistoryConfig struct {
	Profile media.Profile // media for data + log + backup devices
	// ImageEvery is the full-page-image cadence N (§6.1); 0 = off.
	ImageEvery int
	// Txns is the number of driver transactions of history to generate.
	Txns int
	// Clients drives concurrency during history generation.
	Clients int
	// Span is the virtual time the history covers (default 50 min, the
	// paper's steady-state run length).
	Span time.Duration
	// Scale is the TPC-C scale (default DefaultConfig).
	Scale tpcc.Config
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.Txns <= 0 {
		c.Txns = 6000
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Span <= 0 {
		c.Span = 50 * time.Minute
	}
	if c.Scale.Warehouses == 0 {
		c.Scale = tpcc.DefaultConfig()
	}
	return c
}

// History is a database with a generated TPC-C past, plus the full backup
// taken at load time that the restore baseline starts from.
type History struct {
	DB       *engine.DB
	Clock    *vclock.Clock
	Media    *media.Clock
	DataDev  *media.Device
	LogDev   *media.Device
	SideDev  *media.Device
	BackDev  *media.Device
	Cfg      HistoryConfig
	Manifest backup.Manifest
	LoadedAt time.Time
	EndAt    time.Time
	Result   tpcc.Result
	dir      string
}

// BuildHistory loads TPC-C, takes the baseline full backup, then runs the
// driver so the log holds Span worth of virtual history.
func BuildHistory(dir string, cfg HistoryConfig) (*History, error) {
	cfg = cfg.withDefaults()
	clock := vclock.New(time.Time{})
	mclock := &media.Clock{}
	h := &History{
		Clock:   clock,
		Media:   mclock,
		DataDev: media.New(cfg.Profile, mclock),
		LogDev:  media.New(cfg.Profile, mclock),
		SideDev: media.New(cfg.Profile, mclock),
		BackDev: media.New(cfg.Profile, mclock),
		Cfg:     cfg,
		dir:     dir,
	}
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{
		SyncPolicy:      LogSync,
		Clock:           clock,
		DataDevice:      h.DataDev,
		LogDevice:       h.LogDev,
		PageImageEvery:  cfg.ImageEvery,
		BufferFrames:    2048,
		CheckpointEvery: 1 << 20, // periodic checkpoints bound recovery (§6.1)
		Retention:       365 * 24 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	h.DB = db
	if err := tpcc.Load(db, cfg.Scale); err != nil {
		db.Close()
		return nil, err
	}
	h.LoadedAt = clock.Now()
	h.Manifest, err = backup.Full(db, filepath.Join(dir, "full.bak"), h.BackDev)
	if err != nil {
		db.Close()
		return nil, err
	}

	d := tpcc.NewDriver(db, cfg.Scale, clock)
	d.TimePerTxn = cfg.Span / time.Duration(cfg.Txns)
	h.Result, err = d.Run(cfg.Txns, cfg.Clients)
	if err != nil {
		db.Close()
		return nil, err
	}
	// Leave a clean flush point so per-measurement checkpoints are small.
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	h.EndAt = clock.Now()
	return h, nil
}

// Close releases the history database.
func (h *History) Close() error { return h.DB.Close() }

// Dir returns the history's working directory.
func (h *History) Dir() string { return h.dir }

// MinutesBack translates "m virtual minutes before the end of history".
func (h *History) MinutesBack(m float64) time.Time {
	return h.EndAt.Add(-time.Duration(m * float64(time.Minute)))
}

// table prints an aligned table: header row then records.
func table(w io.Writer, headers []string, rows [][]string) {
	if w == nil {
		return
	}
	widths := make([]int, len(headers))
	for i, hd := range headers {
		widths[i] = len(hd)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
