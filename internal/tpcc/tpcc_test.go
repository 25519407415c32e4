package tpcc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/vclock"
)

func loadedDB(t *testing.T, cfg Config) (*engine.DB, *vclock.Clock) {
	t.Helper()
	clock := vclock.New(time.Time{})
	db, err := engine.Open(t.TempDir(), engine.Options{Clock: clock, BufferFrames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db, clock
}

func smallCfg() Config {
	return Config{Warehouses: 1, DistrictsPerW: 2, CustomersPerD: 10, Items: 50, Seed: 1}
}

func TestLoadPopulatesAllTables(t *testing.T) {
	cfg := smallCfg()
	db, _ := loadedDB(t, cfg)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	counts := map[string]int{
		TableItem:      cfg.Items,
		TableWarehouse: cfg.Warehouses,
		TableStock:     cfg.Warehouses * cfg.Items,
		TableDistrict:  cfg.Warehouses * cfg.DistrictsPerW,
		TableCustomer:  cfg.Warehouses * cfg.DistrictsPerW * cfg.CustomersPerD,
	}
	for table, want := range counts {
		n, err := tx.CountRows(table, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if n != want {
			t.Errorf("%s rows = %d, want %d", table, n, want)
		}
	}
}

func TestNewOrderCreatesOrderAndLines(t *testing.T) {
	cfg := smallCfg()
	db, _ := loadedDB(t, cfg)
	tx, _ := db.Begin()
	rng := newRng(7)
	if err := NewOrder(tx, cfg, rng, 1, 1, db.Now()); err != nil && err != ErrUserAbort {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin()
	defer tx2.Rollback()
	orders, err := tx2.CountRows(TableOrders, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orders != 1 {
		t.Fatalf("orders = %d, want 1", orders)
	}
	lines, err := tx2.CountRows(TableOrderLine, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lines < cfg.OrderLinesMin {
		t.Fatalf("order lines = %d, want >= %d", lines, cfg.OrderLinesMin)
	}
	no, err := tx2.CountRows(TableNewOrder, nil, nil)
	if err != nil || no != 1 {
		t.Fatalf("new_order rows = %d err=%v", no, err)
	}
	// District next order id advanced.
	dr, _, err := tx2.Get(TableDistrict, keyWD(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dr[5].Int != 2 {
		t.Fatalf("d_next_o_id = %d, want 2", dr[5].Int)
	}
}

func TestPaymentUpdatesBalancesAndHistory(t *testing.T) {
	cfg := smallCfg()
	db, _ := loadedDB(t, cfg)
	tx, _ := db.Begin()
	if err := Payment(tx, cfg, newRng(3), 1, 1, 1, db.Now()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	defer tx2.Rollback()
	wr, _, err := tx2.Get(TableWarehouse, keyWID(1))
	if err != nil {
		t.Fatal(err)
	}
	if wr[7].Float <= 0 {
		t.Fatalf("w_ytd = %f, want > 0", wr[7].Float)
	}
	h, err := tx2.CountRows(TableHistory, nil, nil)
	if err != nil || h != 1 {
		t.Fatalf("history rows = %d err=%v", h, err)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	cfg := smallCfg()
	db, _ := loadedDB(t, cfg)
	rng := newRng(11)
	// Seed a few orders.
	for i := 0; i < 4; i++ {
		tx, _ := db.Begin()
		cfgNoAbort := cfg
		cfgNoAbort.AbortPercent = 0
		if err := NewOrder(tx, cfgNoAbort, rng, 1, 1+i%2, db.Now()); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := db.Begin()
	if err := Delivery(tx, cfg, 1, 5, db.Now()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	defer tx2.Rollback()
	no, err := tx2.CountRows(TableNewOrder, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if no != 2 { // one per district delivered, 2 remain
		t.Fatalf("new_order rows after delivery = %d, want 2", no)
	}
}

func TestStockLevelCounts(t *testing.T) {
	cfg := smallCfg()
	db, _ := loadedDB(t, cfg)
	rng := newRng(13)
	noAbort := cfg
	noAbort.AbortPercent = 0
	for i := 0; i < 5; i++ {
		tx, _ := db.Begin()
		if err := NewOrder(tx, noAbort, rng, 1, 1, db.Now()); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := db.Begin()
	defer tx.Rollback()
	low, err := StockLevel(tx, 1, 1, 100) // generous threshold: everything is low
	if err != nil {
		t.Fatal(err)
	}
	if low == 0 {
		t.Fatal("stock level found no items below a generous threshold")
	}
	low2, err := StockLevel(tx, 1, 1, 0) // nothing below zero
	if err != nil {
		t.Fatal(err)
	}
	if low2 != 0 {
		t.Fatalf("stock level below 0 = %d, want 0", low2)
	}
}

func TestDriverMixedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warehouses = 1
	cfg.CustomersPerD = 10
	cfg.Items = 100
	db, clock := loadedDB(t, cfg)
	d := NewDriver(db, cfg, clock)
	before := db.Now()
	res, err := d.Run(200, 4)
	if err != nil {
		t.Fatalf("driver: %v (%+v)", err, res)
	}
	if res.Commits < 150 {
		t.Fatalf("commits = %d, want most of 200", res.Commits)
	}
	if res.LogBytes == 0 {
		t.Fatal("run generated no log")
	}
	if !db.Now().After(before) {
		t.Fatal("virtual clock did not advance")
	}
	t.Logf("result: %v", res)

	// Integrity: every order has its lines; district counters consistent.
	tx, _ := db.Begin()
	defer tx.Rollback()
	var badOrders int
	err = tx.Scan(TableOrders, nil, nil, func(r row.Row) bool {
		w, dd, o := int(r[0].Int), int(r[1].Int), int(r[2].Int)
		want := int(r[6].Int)
		n := 0
		if err := tx.Scan(TableOrderLine, keyOrderLine(w, dd, o, 0), keyOrderLine(w, dd, o+1, 0),
			func(row.Row) bool { n++; return true }); err != nil {
			badOrders++
			return false
		}
		if n != want {
			badOrders++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if badOrders != 0 {
		t.Fatalf("%d orders with wrong line counts", badOrders)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestAsOfStockLevelReadsAreDeterministic builds the same history twice and
// runs the same as-of StockLevel queries on each: the answers, the log block
// reads and the bytes read from the log device must be identical. StockLevel
// sorts its item ids before it reads their stock; ranging over the Go map
// it collects them in would issue the reads in a different order on every
// run, and with them the block-cache evictions and the device reads.
func TestAsOfStockLevelReadsAreDeterministic(t *testing.T) {
	type outcome struct {
		answers              [10]int
		batches              int64
		undoReads, readBytes int64
	}
	run := func() outcome {
		cfg := DefaultConfig()
		cfg.Warehouses, cfg.CustomersPerD, cfg.Items = 1, 30, 1000
		clock := vclock.New(time.Time{})
		logDev := media.New(media.SSD(), nil)
		// A block cache far smaller than the log, so read order shows.
		db, err := engine.Open(t.TempDir(), engine.Options{Clock: clock, BufferFrames: 1024, LogDevice: logDev, LogCacheBlocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := Load(db, cfg); err != nil {
			t.Fatal(err)
		}
		d := NewDriver(db, cfg, clock)
		if _, err := d.Run(200, 1); err != nil {
			t.Fatal(err)
		}
		past := clock.Now()
		if _, err := d.Run(800, 1); err != nil {
			t.Fatal(err)
		}

		var out outcome
		db.Log().InvalidateCache()
		reads, dev := db.Log().UndoReads.Load(), logDev.Stats.Snapshot()
		snap, err := asof.CreateSnapshot(db, past, nil)
		if err != nil {
			t.Fatal(err)
		}
		for dist := range out.answers {
			if out.answers[dist], err = StockLevel(snap, 1, dist+1, 15); err != nil {
				t.Fatal(err)
			}
		}
		out.batches = snap.Stats().BatchPrepares.Load()
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		out.undoReads = db.Log().UndoReads.Load() - reads
		out.readBytes = logDev.Stats.Snapshot().Sub(dev).ReadBytes
		return out
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("two identical histories, two outcomes:\n%+v\n%+v", first, second)
	}
	if first.batches == 0 || first.undoReads == 0 {
		t.Fatalf("the queries rewound nothing together: %+v", first)
	}
}
