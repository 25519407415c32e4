package tpcc

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/row"
)

// Load creates the nine tables and populates them at the configured scale.
// The initial load commits in batches so the log stays bounded.
func Load(db *engine.DB, cfg Config) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	tx, err := db.Begin()
	if err != nil {
		return err
	}
	for _, s := range Schemas() {
		if err := tx.CreateTable(s); err != nil {
			tx.Rollback()
			return fmt.Errorf("tpcc: create %s: %w", s.Name, err)
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	batch := func(fn func(tx *engine.Txn) error) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}

	// Items.
	if err := batch(func(tx *engine.Txn) error {
		for i := 1; i <= cfg.Items; i++ {
			r := row.Row{
				row.Int64(int64(i)),
				row.String(fmt.Sprintf("item-%06d", i)),
				row.Float64(1 + float64(rng.Intn(9999))/100),
				row.String(fmtData("item", i)),
			}
			if err := tx.Insert(TableItem, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("tpcc: load items: %w", err)
	}

	now := db.Now()
	for w := 1; w <= cfg.Warehouses; w++ {
		w := w
		if err := batch(func(tx *engine.Txn) error {
			wr := row.Row{
				row.Int64(int64(w)),
				row.String(fmt.Sprintf("wh-%02d", w)),
				row.String("1 Bench St"), row.String("Redmond"), row.String("WA"),
				row.String("98052"), row.Float64(0.07), row.Float64(0),
			}
			if err := tx.Insert(TableWarehouse, wr); err != nil {
				return err
			}
			for i := 1; i <= cfg.StockPerW; i++ {
				sr := row.Row{
					row.Int64(int64(w)), row.Int64(int64(i)),
					row.Int64(int64(10 + rng.Intn(91))),
					row.Float64(0), row.Int64(0), row.Int64(0),
					row.String(fmtData("stock", i)),
				}
				if err := tx.Insert(TableStock, sr); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("tpcc: load warehouse %d: %w", w, err)
		}

		for d := 1; d <= cfg.DistrictsPerW; d++ {
			d := d
			if err := batch(func(tx *engine.Txn) error {
				dr := row.Row{
					row.Int64(int64(w)), row.Int64(int64(d)),
					row.String(fmt.Sprintf("dist-%02d-%02d", w, d)),
					row.Float64(0.05), row.Float64(0), row.Int64(1),
				}
				if err := tx.Insert(TableDistrict, dr); err != nil {
					return err
				}
				for c := 1; c <= cfg.CustomersPerD; c++ {
					cr := row.Row{
						row.Int64(int64(w)), row.Int64(int64(d)), row.Int64(int64(c)),
						row.String(fmt.Sprintf("First%04d", c)),
						row.String(lastName(c)),
						row.Float64(-10), row.Float64(10),
						row.Int64(1), row.Int64(0),
						row.String(fmtData("cust", c)),
					}
					if err := tx.Insert(TableCustomer, cr); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return fmt.Errorf("tpcc: load district %d/%d: %w", w, d, err)
			}
		}
	}
	_ = now
	return db.Checkpoint()
}

// lastName generates the TPC-C syllable-based last name.
func lastName(n int) string {
	syll := []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	return syll[(n/100)%10] + syll[(n/10)%10] + syll[n%10]
}
