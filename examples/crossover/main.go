// Crossover demonstrates §6.4: with both mechanisms available — roll a
// backup forward, or rewind the current state with an as-of snapshot —
// which is faster depends on how much data is accessed. The example builds
// a small TPC-C history on simulated SAS media and compares both paths for
// a point read and for a full-table scan.
//
//	go run ./examples/crossover
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asof"
	"repro/internal/backup"
	"repro/internal/exp"
	"repro/internal/storage/media"
	"repro/internal/tpcc"

	asofdb "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "asofdb-crossover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("building a TPC-C history on simulated SAS media (this runs at memory speed;")
	fmt.Println("I/O costs accumulate on a virtual clock)...")
	h, err := exp.BuildHistory(dir, exp.HistoryConfig{
		Profile:    media.SAS(),
		ImageEvery: 50, // §6.1: periodic page images bound per-page undo work
		Txns:       3000,
		Clients:    2,
		Span:       50 * time.Minute,
		Scale:      tpcc.Config{Warehouses: 1, DistrictsPerW: 4, CustomersPerD: 10, Items: 3000, Seed: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	target := h.MinutesBack(45)

	measure := func(name string, fn func() error) time.Duration {
		start := h.Media.Elapsed()
		if err := fn(); err != nil {
			log.Fatal(name, ": ", err)
		}
		d := h.Media.Elapsed() - start
		fmt.Printf("  %-38s %8.2fs (virtual)\n", name, d.Seconds())
		return d
	}

	fmt.Println("\ngoal A: one stock row, 45 minutes ago")
	key := asofdb.Row{asofdb.Int64(1), asofdb.Int64(1500)}
	asofPoint := measure("as-of snapshot + point read", func() error {
		s, err := asof.CreateSnapshot(h.DB, target, h.SideDev)
		if err != nil {
			return err
		}
		defer s.Close()
		_, _, err = s.Get(tpcc.TableStock, key)
		return err
	})
	restorePoint := measure("full restore + point read", func() error {
		r, err := backup.RestoreToTime(h.Manifest, h.DB.Log(), target,
			filepath.Join(dir, "r1.db"), h.BackDev)
		if err != nil {
			return err
		}
		defer r.Close()
		_, _, err = r.Get(tpcc.TableStock, key)
		return err
	})

	fmt.Println("\ngoal B: scan the whole stock table, 45 minutes ago")
	asofScan := measure("as-of snapshot + full scan", func() error {
		s, err := asof.CreateSnapshot(h.DB, target, h.SideDev)
		if err != nil {
			return err
		}
		defer s.Close()
		return s.Scan(tpcc.TableStock, nil, nil, func(asofdb.Row) bool { return true })
	})
	restoreScan := measure("full restore + full scan", func() error {
		r, err := backup.RestoreToTime(h.Manifest, h.DB.Log(), target,
			filepath.Join(dir, "r2.db"), h.BackDev)
		if err != nil {
			return err
		}
		defer r.Close()
		return r.Scan(tpcc.TableStock, nil, nil, func(asofdb.Row) bool { return true })
	})

	fmt.Println()
	if asofPoint < restorePoint {
		fmt.Printf("point access: as-of wins by %.1fx — recovery cost proportional to data accessed\n",
			restorePoint.Seconds()/asofPoint.Seconds())
	} else {
		fmt.Println("point access: restore won (unusual at this scale)")
	}
	if restoreScan < asofScan {
		fmt.Printf("bulk access:  restore wins by %.1fx — §6.4's crossover: beyond it, roll forward\n",
			asofScan.Seconds()/restoreScan.Seconds())
	} else {
		fmt.Printf("bulk access:  as-of still wins (%.1fs vs %.1fs); crossover lies at a larger fraction\n",
			asofScan.Seconds(), restoreScan.Seconds())
	}
}
