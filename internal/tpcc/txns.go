package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
)

// Queryable is the read surface shared by live transactions, as-of
// snapshots and restored databases — the stock-level procedure of §6.2 runs
// unchanged against any of them.
type Queryable interface {
	Get(table string, keyVals row.Row) (row.Row, bool, error)
	// GetMany answers a Get per key: one entry per key, nil where no row
	// exists. A source that pays per page touched (an as-of snapshot) uses
	// the whole key set to pay once for what the keys share.
	GetMany(table string, keys []row.Row) ([]row.Row, error)
	Scan(table string, from, to row.Row, fn func(row.Row) bool) error
}

// ErrUserAbort marks the intentional 1% NewOrder rollback of TPC-C.
var ErrUserAbort = errors.New("tpcc: transaction aborted by user input simulation")

// NewOrder runs the TPC-C New-Order transaction for (w, d).
func NewOrder(tx *engine.Txn, cfg Config, rng *rand.Rand, w, d int, now time.Time) error {
	cfg = cfg.withDefaults()
	c := 1 + rng.Intn(cfg.CustomersPerD)
	if _, ok, err := tx.Get(TableCustomer, keyWDC(w, d, c)); err != nil || !ok {
		return fmt.Errorf("tpcc: neworder customer: ok=%v err=%w", ok, err)
	}
	dr, ok, err := tx.Get(TableDistrict, keyWD(w, d))
	if err != nil || !ok {
		return fmt.Errorf("tpcc: neworder district: ok=%v err=%w", ok, err)
	}
	oid := int(dr[5].Int)
	dr[5].Int++
	if err := tx.Update(TableDistrict, dr); err != nil {
		return err
	}

	nLines := cfg.OrderLinesMin + rng.Intn(cfg.OrderLinesMax-cfg.OrderLinesMin+1)
	or := row.Row{
		row.Int64(int64(w)), row.Int64(int64(d)), row.Int64(int64(oid)),
		row.Int64(int64(c)), row.Time(now), row.Int64(0), row.Int64(int64(nLines)),
	}
	if err := tx.Insert(TableOrders, or); err != nil {
		return err
	}
	if err := tx.Insert(TableNewOrder, keyOrder(w, d, oid)); err != nil {
		return err
	}

	for ln := 1; ln <= nLines; ln++ {
		item := 1 + rng.Intn(cfg.Items)
		ir, ok, err := tx.Get(TableItem, keyItem(item))
		if err != nil || !ok {
			return fmt.Errorf("tpcc: neworder item %d: ok=%v err=%w", item, ok, err)
		}
		price := ir[2].Float

		sr, ok, err := tx.Get(TableStock, keyStock(w, item))
		if err != nil || !ok {
			return fmt.Errorf("tpcc: neworder stock %d: ok=%v err=%w", item, ok, err)
		}
		qty := int64(1 + rng.Intn(10))
		if sr[2].Int >= qty+10 {
			sr[2].Int -= qty
		} else {
			sr[2].Int = sr[2].Int - qty + 91
		}
		sr[3].Float += float64(qty)
		sr[4].Int++
		if err := tx.Update(TableStock, sr); err != nil {
			return err
		}

		olr := row.Row{
			row.Int64(int64(w)), row.Int64(int64(d)), row.Int64(int64(oid)), row.Int64(int64(ln)),
			row.Int64(int64(item)), row.Int64(int64(w)), row.Int64(qty),
			row.Float64(price * float64(qty)), row.Time(time.Unix(0, 0)),
			row.String(fmt.Sprintf("dist-info-%02d-%024d", d, oid)),
		}
		if err := tx.Insert(TableOrderLine, olr); err != nil {
			return err
		}
	}
	// TPC-C: ~1% of New-Order transactions abort on an invalid item.
	if cfg.AbortPercent > 0 && rng.Intn(100) < cfg.AbortPercent {
		return ErrUserAbort
	}
	return nil
}

// Payment runs the TPC-C Payment transaction.
func Payment(tx *engine.Txn, cfg Config, rng *rand.Rand, w, d int, hid int64, now time.Time) error {
	cfg = cfg.withDefaults()
	amount := 1 + float64(rng.Intn(499999))/100

	wr, ok, err := tx.Get(TableWarehouse, keyWID(w))
	if err != nil || !ok {
		return fmt.Errorf("tpcc: payment warehouse: ok=%v err=%w", ok, err)
	}
	wr[7].Float += amount
	if err := tx.Update(TableWarehouse, wr); err != nil {
		return err
	}

	dr, ok, err := tx.Get(TableDistrict, keyWD(w, d))
	if err != nil || !ok {
		return fmt.Errorf("tpcc: payment district: ok=%v err=%w", ok, err)
	}
	dr[4].Float += amount
	if err := tx.Update(TableDistrict, dr); err != nil {
		return err
	}

	c := 1 + rng.Intn(cfg.CustomersPerD)
	cr, ok, err := tx.Get(TableCustomer, keyWDC(w, d, c))
	if err != nil || !ok {
		return fmt.Errorf("tpcc: payment customer: ok=%v err=%w", ok, err)
	}
	cr[5].Float -= amount
	cr[6].Float += amount
	cr[7].Int++
	if err := tx.Update(TableCustomer, cr); err != nil {
		return err
	}

	hr := row.Row{
		row.Int64(hid), row.Int64(int64(w)), row.Int64(int64(d)), row.Int64(int64(c)),
		row.Float64(amount), row.Time(now), row.String("payment-history-entry"),
	}
	return tx.Insert(TableHistory, hr)
}

// OrderStatus runs the TPC-C Order-Status transaction (read only).
func OrderStatus(tx *engine.Txn, cfg Config, rng *rand.Rand, w, d int) error {
	cfg = cfg.withDefaults()
	c := 1 + rng.Intn(cfg.CustomersPerD)
	if _, ok, err := tx.Get(TableCustomer, keyWDC(w, d, c)); err != nil || !ok {
		return fmt.Errorf("tpcc: orderstatus customer: ok=%v err=%w", ok, err)
	}
	dr, ok, err := tx.Get(TableDistrict, keyWD(w, d))
	if err != nil || !ok {
		return fmt.Errorf("tpcc: orderstatus district: ok=%v err=%w", ok, err)
	}
	lastOID := int(dr[5].Int) - 1
	if lastOID < 1 {
		return nil
	}
	if _, ok, err := tx.Get(TableOrders, keyOrder(w, d, lastOID)); err != nil {
		return err
	} else if !ok {
		return nil // order may belong to another customer stream; fine
	}
	return tx.Scan(TableOrderLine, keyOrderLine(w, d, lastOID, 0), keyOrderLine(w, d, lastOID+1, 0),
		func(row.Row) bool { return true })
}

// Delivery runs the TPC-C Delivery transaction: the oldest undelivered
// order in each district is delivered.
func Delivery(tx *engine.Txn, cfg Config, w int, carrier int, now time.Time) error {
	cfg = cfg.withDefaults()
	for d := 1; d <= cfg.DistrictsPerW; d++ {
		var oldest row.Row
		err := tx.Scan(TableNewOrder, keyWD(w, d), keyWD(w, d+1), func(r row.Row) bool {
			oldest = r
			return false // first = oldest (key order)
		})
		if err != nil {
			return err
		}
		if oldest == nil {
			continue
		}
		oid := int(oldest[2].Int)
		if err := tx.Delete(TableNewOrder, keyOrder(w, d, oid)); err != nil {
			return err
		}
		or, ok, err := tx.Get(TableOrders, keyOrder(w, d, oid))
		if err != nil || !ok {
			return fmt.Errorf("tpcc: delivery order %d: ok=%v err=%w", oid, ok, err)
		}
		or[5].Int = int64(carrier)
		if err := tx.Update(TableOrders, or); err != nil {
			return err
		}
		total := 0.0
		var lines []row.Row
		err = tx.Scan(TableOrderLine, keyOrderLine(w, d, oid, 0), keyOrderLine(w, d, oid+1, 0),
			func(r row.Row) bool {
				lines = append(lines, r)
				return true
			})
		if err != nil {
			return err
		}
		for _, lr := range lines {
			total += lr[7].Float
			lr[8] = row.Time(now)
			if err := tx.Update(TableOrderLine, lr); err != nil {
				return err
			}
		}
		c := int(or[3].Int)
		cr, ok, err := tx.Get(TableCustomer, keyWDC(w, d, c))
		if err != nil || !ok {
			return fmt.Errorf("tpcc: delivery customer: ok=%v err=%w", ok, err)
		}
		cr[5].Float += total
		cr[8].Int++
		if err := tx.Update(TableCustomer, cr); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel runs the TPC-C Stock-Level procedure against any Queryable —
// a live transaction, an as-of snapshot, or a restored database. This is
// the query the paper measures in §6.2: it examines the order lines of the
// district's last 20 orders and counts distinct items whose stock is below
// the threshold.
func StockLevel(q Queryable, w, d int, threshold int64) (int, error) {
	dr, ok, err := q.Get(TableDistrict, keyWD(w, d))
	if err != nil || !ok {
		return 0, fmt.Errorf("tpcc: stocklevel district %d/%d: ok=%v err=%w", w, d, ok, err)
	}
	nextOID := int(dr[5].Int)
	fromOID := nextOID - 20
	if fromOID < 1 {
		fromOID = 1
	}
	items := make(map[int64]struct{})
	err = q.Scan(TableOrderLine, keyOrderLine(w, d, fromOID, 0), keyOrderLine(w, d, nextOID, 0),
		func(r row.Row) bool {
			items[r[4].Int] = struct{}{}
			return true
		})
	if err != nil {
		return 0, err
	}
	// Sorted, so the reads are issued in the same order on every run (a map
	// ranges in a different one each time) and neighbours share a leaf.
	ids := make([]int64, 0, len(items))
	for item := range items {
		ids = append(ids, item)
	}
	slices.Sort(ids)
	keys := make([]row.Row, len(ids))
	for i, item := range ids {
		keys[i] = keyStock(w, int(item))
	}
	stock, err := q.GetMany(TableStock, keys)
	if err != nil {
		return 0, err
	}
	low := 0
	for _, sr := range stock {
		if sr != nil && sr[2].Int < threshold {
			low++
		}
	}
	return low, nil
}
