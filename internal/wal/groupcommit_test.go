package wal

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlushMakesRecordsDurable: a record Flush returns for must be at or
// below the flushed LSN, and must survive reopening the log.
func TestFlushMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 100
	var mu sync.Mutex
	written := make(map[LSN]uint64)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*1_000_000 + i)
				rec := &Record{Type: TypeCommit, TxnID: id, PageID: NoPage}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Flush(lsn); err != nil {
					t.Error(err)
					return
				}
				if got := m.FlushedLSN(); got < lsn {
					t.Errorf("Flush(%v) returned with FlushedLSN %v", lsn, got)
					return
				}
				mu.Lock()
				written[lsn] = id
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Drop the manager without Close: only what Flush acknowledged is
	// on disk, and all of it must be readable by a fresh manager.
	if err := m.store.close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for lsn, id := range written {
		rec, err := m2.Read(lsn)
		if err != nil {
			t.Fatalf("read %v after reopen: %v", lsn, err)
		}
		if rec.TxnID != id {
			t.Fatalf("lsn %v: txn %d, want %d", lsn, rec.TxnID, id)
		}
	}
}

// TestGroupCommitBatching pins pipelined batching without a linger: while
// the first leader's write is held in flight, seven more committers append
// and call Flush. Once the write is released, exactly one further write
// must carry all seven — whichever of them leads it, and whether or not the
// others were already parked.
func TestGroupCommitBatching(t *testing.T) {
	m := testManager(t)
	held, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	m.syncHook = func() { hold.Do(func() { close(held); <-release }) }
	commit := func(id uint64) (LSN, error) {
		return m.Append(&Record{Type: TypeCommit, TxnID: id, PageID: NoPage})
	}

	first, err := commit(0)
	if err != nil {
		t.Fatal(err)
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- m.Flush(first) }()
	<-held

	const followers = 7
	lsns := make([]LSN, followers)
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for i := range lsns {
		if lsns[i], err = commit(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(lsn LSN) {
			defer wg.Done()
			errs <- m.Flush(lsn)
		}(lsns[i])
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Flushes.Load(); got != 2 {
		t.Fatalf("%d commits took %d log writes, want 2", followers+1, got)
	}
	for _, lsn := range lsns {
		if m.FlushedLSN() < lsn {
			t.Fatalf("commit at %v not durable: flushed %v", lsn, m.FlushedLSN())
		}
	}
}

// TestConcurrentAppendFlushReadScan hammers every manager entry point at
// once — appenders waiting for durability, explicit flushers, random
// readers, and sequential scanners — for the race detector's benefit, and
// verifies reads return exactly what was appended.
func TestConcurrentAppendFlushReadScan(t *testing.T) {
	m := testManager(t)
	const writers = 4
	const perWriter = 200

	var mu sync.Mutex
	written := make(map[LSN][]byte)
	var lsns []LSN

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				rec := &Record{Type: TypeInsert, TxnID: uint64(w), PageID: uint32(w + 1), NewData: payload}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				written[lsn] = payload
				lsns = append(lsns, lsn)
				mu.Unlock()
				if i%3 != 2 {
					if err := m.Flush(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers chase arbitrary written LSNs.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				mu.Lock()
				if len(lsns) == 0 {
					mu.Unlock()
					continue
				}
				lsn := lsns[rng.Intn(len(lsns))]
				want := written[lsn]
				mu.Unlock()
				rec, err := m.Read(lsn)
				if err != nil {
					t.Errorf("read %v: %v", lsn, err)
					return
				}
				if string(rec.NewData) != string(want) {
					t.Errorf("read %v: %q, want %q", lsn, rec.NewData, want)
					return
				}
			}
		}(int64(r))
	}
	// A scanner sweeps the log while it grows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := m.Scan(1, func(rec *Record) (bool, error) { return true, nil }); err != nil {
				t.Errorf("scan: %v", err)
				return
			}
		}
	}()

	// Writers finish, then stop the background load.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	deadline := time.After(60 * time.Second)
	for {
		mu.Lock()
		n := len(lsns)
		mu.Unlock()
		if n == writers*perWriter {
			stop.Store(true)
		}
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal("timeout")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestBlockCacheSecondChance: a block touched since it was enqueued gets a
// second chance instead of being evicted in FIFO order.
func TestBlockCacheSecondChance(t *testing.T) {
	c := newBlockCache(4)
	if len(c.shards) != 1 {
		t.Fatalf("tiny cache should be one shard, got %d", len(c.shards))
	}
	blk := func(i int) []byte { return []byte{byte(i)} }
	for i := 1; i <= 4; i++ {
		c.put(int64(i), blk(i))
	}
	// Touch block 1: its ref bit protects it from the next eviction.
	if c.get(1) == nil {
		t.Fatal("block 1 missing")
	}
	c.put(5, blk(5)) // evicts 2 (1 gets its second chance)
	if c.get(1) == nil {
		t.Error("touched block 1 was evicted; second chance not honored")
	}
	if c.get(2) != nil {
		t.Error("block 2 should have been the eviction victim")
	}
	for _, i := range []int64{3, 4, 5} {
		if c.get(i) == nil {
			t.Errorf("block %d missing", i)
		}
	}
}
