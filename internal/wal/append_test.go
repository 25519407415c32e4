package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// appended is one hammer append as observed by its writer.
type appended struct {
	lsn  LSN
	size int
	id   uint64
}

// bigPayload is larger than a quarter of the 1 MiB reservation ring the
// append path once had: frames this size took its side-map path.
const bigPayload = 300 << 10

// TestRingHammer races appenders, flushers and the scanner: LSNs must tile
// the log gaplessly on frame boundaries, and Scan must return exactly the
// appended records, byte for byte, in LSN order. Every writer mixes in two
// frames of bigPayload bytes. The names date from the reservation ring; its
// "legacy" arm, the mutex tail, is now the one append path.
func TestRingHammer(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		m := testManager(t)
		const writers, perWriter = 8, 150
		var mu sync.Mutex
		var all []appended
		payloads := make(map[uint64][]byte)

		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWriter; i++ {
					id := uint64(w)<<32 | uint64(i)
					n := 1 + rng.Intn(2048)
					if i%75 == 40 {
						n = bigPayload
					}
					payload := make([]byte, n)
					for j := range payload {
						payload[j] = byte(id + uint64(j))
					}
					rec := &Record{Type: TypeInsert, TxnID: id, PageID: uint32(w + 1), NewData: payload}
					size := rec.ApproxSize()
					lsn, err := m.Append(rec)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					all = append(all, appended{lsn: lsn, size: size, id: id})
					payloads[id] = payload
					mu.Unlock()
					if i%7 == 0 || i%7 == 3 {
						if err := m.Flush(lsn); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		checkTiling(t, m, all, payloads)
	})
}

// TestRingBigFrames appends frames past bigPayload and past the whole 1 MiB
// ring the append path once had, between small ones, under racing writers:
// the tail grows to hold them and the log still tiles gaplessly.
func TestRingBigFrames(t *testing.T) {
	m := testManager(t)
	var mu sync.Mutex
	var all []appended
	payloads := make(map[uint64][]byte)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := uint64(w)<<32 | uint64(i)
				n := 64
				switch i % 8 {
				case 2:
					n = bigPayload
				case 5:
					n = 1<<20 + 4096
				}
				payload := make([]byte, n)
				for j := range payload {
					payload[j] = byte(id + uint64(j))
				}
				rec := &Record{Type: TypeImage, TxnID: id, PageID: uint32(w + 1), NewData: payload}
				size := rec.ApproxSize()
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all = append(all, appended{lsn: lsn, size: size, id: id})
				payloads[id] = payload
				mu.Unlock()
				if i%5 == 0 {
					if err := m.Flush(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkTiling(t, m, all, payloads)
}

// checkTiling flushes m and checks that the appends in all tile the log
// exactly from LSN 1, and that Scan returns each once, in LSN order, with
// the payload recorded for its id.
func checkTiling(t *testing.T, m *Manager, all []appended, payloads map[uint64][]byte) {
	t.Helper()
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}

	// LSN continuity: sorted by LSN, appends tile the log exactly.
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	next := LSN(1)
	for _, a := range all {
		if a.lsn != next {
			t.Fatalf("append gap: lsn %v, want %v", a.lsn, next)
		}
		next = a.lsn + LSN(a.size)
	}
	if got := m.NextLSN(); got != next {
		t.Fatalf("NextLSN %v after appends, want %v", got, next)
	}

	// Scan sees every record exactly once, in order, byte-identical.
	i := 0
	err := m.Scan(1, func(rec *Record) (bool, error) {
		if i >= len(all) {
			return false, fmt.Errorf("scan overran %d appended records at %v", len(all), rec.LSN)
		}
		want := all[i]
		if rec.LSN != want.lsn || rec.TxnID != want.id {
			return false, fmt.Errorf("scan[%d]: lsn %v txn %d, want %v/%d", i, rec.LSN, rec.TxnID, want.lsn, want.id)
		}
		if !bytes.Equal(rec.NewData, payloads[want.id]) {
			return false, fmt.Errorf("scan[%d]: payload mismatch at %v", i, rec.LSN)
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(all) {
		t.Fatalf("scan saw %d records, want %d", i, len(all))
	}
}

// TestReadersChaseAppend pairs racing appenders with readers that read each
// record back the instant Append returns, before any flush: the bytes are
// served from the tail (or the buffer a racing flush is writing).
func TestReadersChaseAppend(t *testing.T) {
	m := testManager(t)
	const writers = 6
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w)<<32 | uint64(i)
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				rec := &Record{Type: TypeInsert, TxnID: id, PageID: 1, NewData: payload}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := m.Read(lsn)
				if err != nil {
					t.Errorf("read-after-append %v: %v", lsn, err)
					return
				}
				if got.TxnID != id || !bytes.Equal(got.NewData, payload) {
					t.Errorf("read-after-append %v: got txn %d", lsn, got.TxnID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAppendMidFlushRotation runs racing committers over tiny (4 KiB)
// segments so flush buffers constantly straddle segment rotations, then
// reopens the store and verifies every acknowledged commit survived.
func TestAppendMidFlushRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	m, err := OpenStore(dir, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 6
	const perWriter = 60
	var mu sync.Mutex
	acked := make(map[LSN]uint64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w)<<32 | uint64(i)
				rec := &Record{Type: TypeCommit, TxnID: id, PageID: NoPage,
					NewData: make([]byte, 100+i%700)}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Flush(lsn); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[lsn] = id
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.store.close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenStore(dir, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := len(m2.Segments()); got < 10 {
		t.Fatalf("only %d segments; rotation not exercised", got)
	}
	for lsn, id := range acked {
		rec, err := m2.Read(lsn)
		if err != nil {
			t.Fatalf("read %v after reopen: %v", lsn, err)
		}
		if rec.TxnID != id {
			t.Fatalf("lsn %v: txn %d, want %d", lsn, rec.TxnID, id)
		}
	}
}

// TestAppendIOErrorSurfaces injects a write failure under racing committers:
// every committer must surface the error (not hang), and the manager must
// stay sticky-poisoned afterwards — Append included, or records would pile
// up behind a log that can never write them.
func TestAppendIOErrorSurfaces(t *testing.T) {
	m := testManager(t)
	const writers = 8
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				rec := &Record{Type: TypeCommit, TxnID: uint64(w), PageID: NoPage,
					NewData: make([]byte, 512)}
				lsn, err := m.Append(rec)
				if err == nil {
					err = m.Flush(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let traffic build
	m.failWrites.Store(true)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("committers hung after injected I/O error")
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("writer exited without an error")
		}
	}
	// Sticky poison: both entry points keep failing.
	if _, err := m.Append(&Record{Type: TypeInsert, TxnID: 1, PageID: 1}); err == nil {
		t.Fatal("Append succeeded on a poisoned manager")
	}
	// The failed flush put its bytes back in the tail, so the log end is
	// appended-but-unflushed; forcing it must surface the sticky error
	// (already-durable LSNs still acknowledge, as they should).
	if end := m.NextLSN() - 1; end <= m.FlushedLSN() {
		t.Fatalf("no unflushed bytes after failed flush: end %v, flushed %v", end, m.FlushedLSN())
	} else if err := m.Flush(end); err == nil {
		t.Fatal("Flush succeeded on a poisoned manager")
	}
}
