package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/asof"
	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/buffer"
	"repro/internal/storage/page"
	"repro/internal/storage/sidefile"
	"repro/internal/tpcc"
	"repro/internal/txn"
	"repro/internal/wal"
)

// probes calls each layer's public functions on the run's database after
// the measured phase of the traced run and fills the probe metrics into m.
// They run after every counter delta was taken, so the I/O they charge and
// the cache state they disturb reach no other metric. A probe that cannot
// run on this workload's database leaves its metric at 0.
func (r *rig) probes(m map[string]float64) error {
	db := r.db
	if db == nil {
		db = r.lastDB
	}
	if db == nil {
		return nil
	}
	if err := probeEngineGet(db, m); err != nil {
		return fmt.Errorf("probe engine: %w", err)
	}
	probeLocks(m)
	hot, err := probePages(db, m)
	if err != nil {
		return fmt.Errorf("probe pages: %w", err)
	}
	if err := probeBTree(db, m); err != nil {
		return fmt.Errorf("probe btree: %w", err)
	}
	if err := probeWAL(db, filepath.Join(r.dir, "probe-wal"), hot, m); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	if err := probeBuffer(db, hot, m); err != nil {
		return fmt.Errorf("probe buffer: %w", err)
	}
	if err := probeSideFile(filepath.Join(r.dir, "probe.side"), m); err != nil {
		return fmt.Errorf("probe sidefile: %w", err)
	}
	probeAsOf(db, hot, m)
	return nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeEngineGet: a point read of one resident row, repeated.
func probeEngineGet(db *engine.DB, m map[string]float64) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	key := row.Row{row.Int64(1), row.Int64(1), row.Int64(1)}
	const n = 20000
	var t0 time.Time
	for i := 0; i < n+100; i++ {
		if i == 100 { // the first hundred warm the path
			t0 = time.Now()
		}
		if _, ok, err := tx.Get(tpcc.TableCustomer, key); err != nil || !ok {
			return fmt.Errorf("get customer: ok=%v err=%v", ok, err)
		}
	}
	m["engine.get_warm_ns"] = nsPer(time.Since(t0), n)
	return nil
}

// probeLocks: LockManager.Lock on n distinct row keys, then ReleaseAll.
func probeLocks(m map[string]float64) {
	const n = 20000
	keys := make([]txn.Key, n)
	for i := range keys {
		keys[i] = txn.Key{Object: 42, Row: fmt.Sprintf("row-%08d", i)}
	}
	lm := txn.NewLockManager(time.Second)
	t0 := time.Now()
	for _, k := range keys {
		if err := lm.Lock(1, k, txn.Exclusive); err != nil {
			return
		}
	}
	t1 := time.Now()
	lm.ReleaseAll(1)
	m["txn.lock_ns"] = nsPer(t1.Sub(t0), n)
	m["txn.release_ns_per_lock"] = nsPer(time.Since(t1), n)
}

type hotPage struct {
	id   page.ID
	mods uint32
	buf  []byte
}

// probePages reads every page once through the main pool: the leaf fill
// over all B-tree leaves, and copies of the most-modified pages (the longest
// chains) for the chain-walk and PreparePageAsOf probes.
func probePages(db *engine.DB, m map[string]float64) ([]hotPage, error) {
	var hot []hotPage
	var leaves, free int64
	const usable = page.Size - 48 // page header
	for id := uint32(1); id < db.Data().PageCount(); id++ {
		h, err := db.Pool().Fetch(page.ID(id), false)
		if err != nil {
			continue // never-allocated gap
		}
		p := h.Page()
		if p.Type() == page.TypeLeaf {
			leaves++
			free += int64(p.FreeSpace())
			hot = append(hot, hotPage{id: page.ID(id), mods: p.ModCount()})
		}
		h.Release()
	}
	m["btree.leaf_fill"] = 1 - div(float64(free), float64(leaves*usable))
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].mods != hot[j].mods {
			return hot[i].mods > hot[j].mods
		}
		return hot[i].id < hot[j].id
	})
	if len(hot) > 16 {
		hot = hot[:16]
	}
	for i := range hot {
		h, err := db.Pool().Fetch(hot[i].id, false)
		if err != nil {
			return nil, err
		}
		hot[i].buf = append([]byte(nil), h.Page().Bytes()...)
		h.Release()
	}
	return hot, nil
}

// probeBTree: btree.TreeStats on the table with the most pages.
func probeBTree(db *engine.DB, m map[string]float64) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	var best btree.Stats
	for _, s := range tpcc.Schemas() {
		t, err := tx.Table(s.Name)
		if err != nil {
			return err
		}
		st, err := btree.TreeStats(tx, t.Root)
		if err != nil {
			return err
		}
		if st.Pages > best.Pages {
			best = st
		}
	}
	m["btree.depth_max"] = float64(best.Height)
	m["btree.leaf_pages"] = float64(best.Leaves)
	return nil
}

// probeWAL: append and append+flush of a 200 B update record on a scratch
// log; a sequential scan of the run's log; a backward walk down the hottest
// page's chain with the block cache cold, then warm.
func probeWAL(db *engine.DB, scratch string, hot []hotPage, m map[string]float64) error {
	lg, err := wal.Open(scratch, nil)
	if err != nil {
		return err
	}
	rec := wal.Record{Type: wal.TypeUpdate, TxnID: 7, PageID: 9, ObjectID: 3, Slot: 1,
		OldData: make([]byte, 100), NewData: make([]byte, 100)}
	const nAppend, nFlush = 50000, 2000
	t0 := time.Now()
	for i := 0; i < nAppend; i++ {
		if _, err := lg.Append(&rec); err != nil {
			lg.Close()
			return err
		}
	}
	m["wal.append_ns_per_record"] = nsPer(time.Since(t0), nAppend)
	t0 = time.Now()
	for i := 0; i < nFlush; i++ {
		if _, err := lg.AppendFlush(&rec); err != nil {
			lg.Close()
			return err
		}
	}
	m["wal.append_flush_us"] = nsPer(time.Since(t0), nFlush) / 1e3
	if err := lg.Close(); err != nil {
		return err
	}
	os.RemoveAll(scratch)

	var scanned int64
	t0 = time.Now()
	err = db.Log().Scan(wal.NilLSN, func(rec *wal.Record) (bool, error) {
		scanned += int64(rec.ApproxSize())
		return scanned < 32*mib, nil
	})
	if err != nil {
		return err
	}
	m["wal.scan_mib_per_s"] = div(float64(scanned)/mib, time.Since(t0).Seconds())

	if len(hot) == 0 {
		return nil
	}
	walk := func() float64 {
		rdr := db.Log().ChainReader()
		defer rdr.Close()
		hops := 0
		t0 := time.Now()
		for cur := wal.LSN(page.FromBytes(hot[0].buf).PageLSN()); cur != wal.NilLSN && hops < 20000; hops++ {
			rec, err := rdr.Read(cur)
			if err != nil {
				break // chain runs below the retention cut
			}
			cur = rec.PrevPageLSN
		}
		if hops == 0 {
			return 0
		}
		return nsPer(time.Since(t0), hops)
	}
	db.Log().InvalidateCache()
	m["wal.chain_hop_ns_cold"] = walk()
	m["wal.chain_hop_ns_warm"] = walk()
	return nil
}

// probeBuffer: Fetch/Release of one resident page on the main pool (hit),
// and of distinct pages through a small private pool over the same data
// file (every fetch a miss that evicts).
func probeBuffer(db *engine.DB, hot []hotPage, m map[string]float64) error {
	if len(hot) == 0 {
		return nil
	}
	const nHit = 100000
	t0 := time.Now()
	for i := 0; i < nHit; i++ {
		h, err := db.Pool().Fetch(hot[0].id, false)
		if err != nil {
			return err
		}
		h.Release()
	}
	m["buffer.fetch_hit_ns"] = nsPer(time.Since(t0), nHit)

	pool := buffer.New(buffer.Config{Frames: 64, Source: db.Data()})
	defer pool.Destroy()
	n := int(db.Data().PageCount()) - 1
	if n > 2000 {
		n = 2000
	}
	t0 = time.Now()
	for id := 1; id <= n; id++ {
		h, err := pool.Fetch(page.ID(id), false)
		if err != nil {
			return err
		}
		h.Release()
	}
	m["buffer.fetch_miss_us"] = nsPer(time.Since(t0), n) / 1e3
	return nil
}

// probeSideFile: File.WritePage then File.ReadPage of n distinct pages.
func probeSideFile(path string, m map[string]float64) error {
	f, err := sidefile.Create(path, nil)
	if err != nil {
		return err
	}
	defer f.Close()
	const n = 2000
	buf := make([]byte, page.Size)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f.WritePage(page.ID(i+1), buf); err != nil {
			return err
		}
	}
	m["sidefile.write_ns"] = nsPer(time.Since(t0), n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := f.ReadPage(page.ID(i+1), buf); err != nil {
			return err
		}
	}
	m["sidefile.read_ns"] = nsPer(time.Since(t0), n)
	return nil
}

// probeAsOf: ResolveTime at instants 10 s apart back from now, and
// PreparePageAsOf on copies of the hottest pages to one virtual minute back.
func probeAsOf(db *engine.DB, hot []hotPage, m map[string]float64) {
	now := db.Now()
	var resolve []float64
	for k := 1; k <= 20; k++ {
		t0 := time.Now()
		if _, err := asof.ResolveTime(db, now.Add(-time.Duration(k)*10*time.Second)); err != nil {
			break // before the database existed, or beyond retention
		}
		resolve = append(resolve, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["asof.resolve_us_p50"] = quantile(resolve, 0.50)

	point, err := asof.ResolveTime(db, now.Add(-time.Minute))
	if err != nil || len(hot) == 0 {
		return
	}
	scratch := page.FromBytes(make([]byte, page.Size))
	var stats asof.Stats
	const rounds = 5
	n := 0
	var total time.Duration
	for round := 0; round <= rounds; round++ { // round 0 warms the block cache
		for _, hp := range hot {
			scratch.CopyFrom(hp.buf)
			t0 := time.Now()
			if err := asof.PreparePageAsOf(scratch, point.SplitLSN, db.Log(), &stats); err != nil {
				return
			}
			if round > 0 {
				total += time.Since(t0)
				n++
			}
		}
	}
	m["asof.prepare_page_us"] = nsPer(total, n) / 1e3
}

// fdatasyncMicros is the median time of a 4 KiB write + fdatasync in dir:
// part of the fingerprint of the box, since no workload syncs.
func fdatasyncMicros(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fdatasync.probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0
		}
		if err := syscall.Fdatasync(int(f.Fd())); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(us, 0.50)
}
