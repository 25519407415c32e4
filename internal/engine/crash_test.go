package engine

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// TestCrashRecoveryMatrix repeatedly crashes the same database at varied
// points in a randomized workload, recovering and checking full physical
// consistency each time. The committed-row model is tracked across crashes
// and compared after every recovery. Each case ends a round differently
// before the crash:
//
//   - explicit: sometimes a flush-all checkpoint, sometimes nothing;
//   - between-DPT-capture-and-end: a checkpoint that got as far as writing
//     back pages and capturing its dirty-page table — its begin record is
//     durable, its end record never written — over periodic fuzzy
//     checkpoints, so recovery starts from the previous, fuzzy one;
//   - fuzzy-then-evicted: a fuzzy checkpoint, then a scan of part of a
//     filler table, which evicts (and writes back) some pages of its
//     dirty-page table before the crash and leaves others dirty, so
//     recovery must redo from the table's recLSNs over both kinds.
//
// Two more cases tear one page on disk after the crash (see tornPage).
func TestCrashRecoveryMatrix(t *testing.T) {
	small := Options{PageImageEvery: 40, BufferFrames: 32, CheckpointEvery: 16 << 10, SyncPolicy: testSyncPolicy(t)}
	evictedSome, keptSome := false, false
	for _, c := range []struct {
		name  string
		opts  Options
		fuzzy bool // the case must see fuzzy checkpoints with a non-empty DPT
		end   crashEnd
		after func(t *testing.T)
	}{
		{"explicit", Options{PageImageEvery: 40, SyncPolicy: testSyncPolicy(t)}, false,
			func(t *testing.T, db *DB, rng *rand.Rand, _ map[int64]string) {
				if rng.Intn(2) == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}, nil},
		{"between-DPT-capture-and-end", small, true,
			func(t *testing.T, db *DB, _ *rand.Rand, _ map[int64]string) {
				// Steps 1–4 of checkpoint, then the crash.
				begin, err := db.log.AppendFlush(&wal.Record{Type: wal.TypeCheckpointBegin, PageID: wal.NoPage, WallClock: db.Now().UnixNano()})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.pool.WriteBackBelow(uint64(db.prevCkptBegin())); err != nil {
					t.Fatal(err)
				}
				db.pool.DirtyPages(uint64(begin))
				if err := db.data.Sync(); err != nil {
					t.Fatal(err)
				}
			}, nil},
		{"fuzzy-then-evicted", small, true,
			func(t *testing.T, db *DB, rng *rand.Rand, model map[int64]string) {
				// Wide rows above the schedule's ids: 800 of them fill about 40
				// pages, more than the pool holds. Each round after the first
				// rewrites one row on most of those pages, so the fuzzy
				// checkpoint's table lists many pages; the scan of the first
				// 300 then evicts some of them.
				_, filled := model[wideBase]
				staged := map[int64]string{}
				mustExec(t, db, func(tx *Txn) error {
					for i := range 800 {
						if filled && i%25 != 0 {
							continue
						}
						v := fmt.Sprintf("%0400d", rng.Intn(1e6))
						write := tx.Insert
						if filled {
							write = tx.Update
						}
						if err := write("t", testRow(wideBase+i, v, i)); err != nil {
							return err
						}
						staged[int64(wideBase+i)] = v
					}
					return nil
				})
				maps.Copy(model, staged)
				if err := db.checkpoint(db.prevCkptBegin()); err != nil {
					t.Fatal(err)
				}
				mark, _ := db.LastCheckpointMark()
				dpt := db.pool.DirtyPages(uint64(mark.Begin))
				mustExec(t, db, func(tx *Txn) error {
					_, err := tx.CountRows("t", row.Row{row.Int64(wideBase)}, row.Row{row.Int64(wideBase + 300)})
					return err
				})
				left := db.pool.DirtyPages(uint64(mark.Begin))
				evictedSome = evictedSome || len(left) < len(dpt)
				keptSome = keptSome || len(left) > 0
			}, func(t *testing.T) {
				if !evictedSome || !keptSome {
					t.Fatalf("pages of a dirty-page table evicted before a crash %v, left dirty %v; want both", evictedSome, keptSome)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dpts := runCrashMatrix(t, c.opts, c.end)
			if c.fuzzy && dpts == 0 {
				t.Fatal("no checkpoint carried a dirty-page table")
			}
			if c.after != nil {
				c.after(t)
			}
		})
	}
	t.Run("torn-page-redo-rebuilds", func(t *testing.T) { tornPage(t, true) })
	t.Run("torn-page-redo-reads", func(t *testing.T) { tornPage(t, false) })
}

// tornPage overwrites, in a crash image from redoImage, one leaf the crashed
// engine wrote back with bytes that fail the checksum, and recovers. When
// the first record redo applies to that leaf rebuilds it — the leaf was
// allocated after the checkpoint — redo never reads the torn bytes: Open
// succeeds with every acknowledged row, and the recovery counters say how
// many pages redo read and how many it rebuilt. Otherwise redo needs the
// page's bytes, and Open fails on the checksum.
func tornPage(t *testing.T, rebuilt bool) {
	dir := t.TempDir()
	model, rebuilds := redoImage(t, dir)
	victim, ok := writtenLeaf(t, dir, rebuilds, rebuilt)
	if !ok {
		t.Fatalf("no leaf on disk whose first redo record rebuilds it = %v", rebuilt)
	}
	f, err := os.OpenFile(filepath.Join(dir, "data.db"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(bytes.Repeat([]byte{0xA5}, page.Size), int64(victim)*page.Size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, Options{SyncPolicy: testSyncPolicy(t)})
	if !rebuilt {
		if !errors.Is(err, page.ErrBadChecksum) {
			t.Fatalf("recovery over torn page %d, first redone by a record that reads it: %v, want a checksum error", victim, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("recovery over torn page %d, first redone by its format: %v", victim, err)
	}
	defer db.Close()
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := tableDigest(t, db); !maps.Equal(got, model) {
		t.Fatalf("%d rows after recovery, want the %d acknowledged", len(got), len(model))
	}
	// The reopened pool holds every page redo touches, so each is missed
	// once: read if its first record needs its bytes, rebuilt if not.
	var read, rebuild float64
	for _, r := range rebuilds {
		if r {
			rebuild++
		} else {
			read++
		}
	}
	snap := db.Obs().Snapshot()
	if got := snap["engine_recovery_pages_read_total"]; got != read {
		t.Errorf("engine_recovery_pages_read_total = %v, want %v", got, read)
	}
	if got := snap["engine_recovery_pages_rebuilt_total"]; got != rebuild {
		t.Errorf("engine_recovery_pages_rebuilt_total = %v, want %v", got, rebuild)
	}
}

// TestCrashRedoPageMissing: a data file cut short of a page whose first redo
// record is an insert or update fails recovery with ErrPageMissing, instead
// of redoing that record onto a zeroed page and failing later on the page.
func TestCrashRedoPageMissing(t *testing.T) {
	dir := t.TempDir()
	_, rebuilds := redoImage(t, dir)
	id, ok := writtenLeaf(t, dir, rebuilds, false)
	if !ok {
		t.Fatal("no leaf on disk whose first redo record reads it")
	}
	if err := os.Truncate(filepath.Join(dir, "data.db"), int64(id)*page.Size); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SyncPolicy: testSyncPolicy(t)}); !errors.Is(err, ErrPageMissing) {
		t.Fatalf("recovery with page %d cut off the data file: %v, want ErrPageMissing", id, err)
	}
}

// redoImage leaves a crash image in dir: 400 wide rows behind a flush-all
// checkpoint, then, past it, an update of every twentieth of them (leaves
// whose first redo record needs their bytes) and 600 more wide rows (leaves
// allocated after the checkpoint, whose first redo record is their format).
// The 32-frame pool writes back pages of both kinds before the crash, the
// more so as a scan of the first 400 rows ends the history.
// It returns the committed rows and, for every page redo will touch, whether
// the first record redo applies to it rebuilds it.
func redoImage(t *testing.T, dir string) (model map[int64]string, rebuilds map[uint32]bool) {
	t.Helper()
	db, err := Open(dir, Options{BufferFrames: 32, SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	model = make(map[int64]string)
	write := func(from, to, step int, prefix string, update bool) {
		mustExec(t, db, func(tx *Txn) error {
			op := tx.Insert
			if update {
				op = tx.Update
			}
			for i := from; i < to; i += step {
				v := fmt.Sprintf("%s%0399d", prefix, i)
				if err := op("t", testRow(i, v, i)); err != nil {
					return err
				}
				model[int64(i)] = fmt.Sprintf("%s|%d", v, i) // as tableDigest reads it
			}
			return nil
		})
	}

	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	write(0, 400, 1, "i", false)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mark, _ := db.LastCheckpointMark()
	write(0, 400, 20, "u", true)
	write(1000, 1600, 1, "i", false)
	mustExec(t, db, func(tx *Txn) error { // evicts new leaves
		_, err := tx.CountRows("t", nil, row.Row{row.Int64(400)})
		return err
	})
	rebuilds = make(map[uint32]bool)
	if err := db.log.Scan(mark.Begin, func(rec *wal.Record) (bool, error) {
		if _, seen := rebuilds[rec.PageID]; !seen && rec.IsPageOp() && rec.PageID != wal.NoPage {
			rebuilds[rec.PageID] = rec.RebuildsPage()
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	return model, rebuilds
}

// writtenLeaf returns the lowest page of pages whose value is want and whose
// copy in dir's data file is an intact leaf.
func writtenLeaf(t *testing.T, dir string, pages map[uint32]bool, want bool) (uint32, bool) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range slices.Sorted(maps.Keys(pages)) {
		off := int(id) * page.Size
		if pages[id] != want || off+page.Size > len(data) {
			continue
		}
		p := page.FromBytes(data[off : off+page.Size])
		if p.VerifyChecksum() == nil && p.Type() == page.TypeLeaf {
			return id, true
		}
	}
	return 0, false
}

// wideBase is the first id of the crash matrix's wide rows.
const wideBase = 10_000

// crashEnd ends one round of the crash matrix, just before the in-flight
// transaction and the crash. model is the committed-row model; a hook that
// commits rows records them in it.
type crashEnd func(t *testing.T, db *DB, rng *rand.Rand, model map[int64]string)

// runCrashMatrix runs the crash matrix's rounds, ending each with end, and
// returns how many checkpoint-end records in the final log carry a
// non-empty dirty-page table.
func runCrashMatrix(t *testing.T, opts Options, end crashEnd) int {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2012))
	model := make(map[int64]string) // committed rows only

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

	for round := 0; round < 12; round++ {
		// A few committed (or rolled-back) transactions.
		for b := range 3 {
			tx, err := db.Begin()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			staged := make(map[int64]*string) // nil = staged delete
			visible := func(id int64) bool {
				if v, ok := staged[id]; ok {
					return v != nil
				}
				_, ok := model[id]
				return ok
			}
			for op := 0; op < 10; op++ {
				id := int64(rng.Intn(200))
				switch {
				case !visible(id):
					v := fmt.Sprintf("r%d-b%d-%d", round, b, op)
					if err := tx.Insert("t", testRow(int(id), v, op)); err != nil {
						t.Fatal(err)
					}
					staged[id] = &v
				case rng.Intn(3) == 0:
					if err := tx.Delete("t", row.Row{row.Int64(id)}); err != nil {
						t.Fatal(err)
					}
					staged[id] = nil
				default:
					v := fmt.Sprintf("u%d-b%d-%d", round, b, op)
					if err := tx.Update("t", testRow(int(id), v, op)); err != nil {
						t.Fatal(err)
					}
					staged[id] = &v
				}
			}
			if rng.Intn(4) == 0 {
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				continue // staged changes discarded
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for id, v := range staged {
				if v == nil {
					delete(model, id)
				} else {
					model[id] = *v
				}
			}
		}
		end(t, db, rng, model)
		// Leave an in-flight transaction hanging at the crash.
		if rng.Intn(2) == 0 {
			hang, _ := db.Begin()
			_ = hang.Insert("t", testRow(500+round, "inflight", round))
		}

		db.Crash()
		db, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("round %d: recovery: %v", round, err)
		}
		if _, err := db.CheckConsistency(); err != nil {
			t.Fatalf("round %d: post-recovery consistency: %v", round, err)
		}
		// Compare against the committed model.
		got := make(map[int64]string)
		mustExec(t, db, func(tx *Txn) error {
			return tx.Scan("t", nil, nil, func(r row.Row) bool {
				got[r[0].Int] = r[1].Str
				return true
			})
		})
		if len(got) != len(model) {
			t.Fatalf("round %d: %d rows after recovery, want %d", round, len(got), len(model))
		}
		for id, v := range model {
			if got[id] != v {
				t.Fatalf("round %d: row %d = %q, want %q", round, id, got[id], v)
			}
		}
	}
	dpts := 0
	if err := db.log.Scan(1, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeCheckpointEnd {
			data, err := wal.DecodeCheckpoint(rec.Extra)
			if err != nil {
				return false, err
			}
			if len(data.DPT) > 0 {
				dpts++
			}
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	return dpts
}

// TestCrashDuringHeavySplits crashes while a large transaction that forced
// many page splits is still in flight; recovery must undo the rows but
// keep the trees (nested-top-action splits) intact.
func TestCrashDuringHeavySplits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", testRow(i, "committed", i)); err != nil {
				return err
			}
		}
		return nil
	})
	big, _ := db.Begin()
	long := make([]byte, 400)
	for i := range long {
		long[i] = 'S'
	}
	for i := 1000; i < 1800; i++ {
		if err := big.Insert("t", testRow(i, string(long), i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 100 {
			return fmt.Errorf("rows = %d, want 100", n)
		}
		return nil
	})
	// The table is fully usable after the rolled-back splits.
	mustExec(t, db2, func(tx *Txn) error {
		for i := 1000; i < 1200; i++ {
			if err := tx.Insert("t", testRow(i, "fresh", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedCrashesWithoutProgress recovers the same crash image several
// times; recovery must be idempotent even when each recovery itself crashes
// before checkpointing further work.
func TestRepeatedCrashesWithoutProgress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "anchor", 1)) })
	inflight, _ := db.Begin()
	_ = inflight.Update("t", testRow(1, "phantom", 2))
	db.Crash()

	for i := 0; i < 4; i++ {
		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		mustExec(t, db, func(tx *Txn) error {
			r, ok, err := tx.Get("t", row.Row{row.Int64(1)})
			if err != nil || !ok {
				return fmt.Errorf("anchor lost: ok=%v err=%v", ok, err)
			}
			if r[1].Str != "anchor" {
				return fmt.Errorf("anchor = %q", r[1].Str)
			}
			return nil
		})
		if _, err := db.CheckConsistency(); err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		db.Crash()
	}
}

// TestRecoverSelfNamedCheckpoint: a checkpoint-end that names itself as its
// predecessor is a corrupt chain. Open's walk of the checkpoint chain refuses
// it with wal.ErrChainCorrupt instead of looping on it or ending the chain
// there.
func TestRecoverSelfNamedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncPolicy: testSyncPolicy(t)}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "kept", 1)) })
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	now := db.Now().UnixNano()
	begin, err := db.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin, PageID: wal.NoPage, WallClock: now})
	if err != nil {
		t.Fatal(err)
	}
	self := db.log.NextLSN()
	end, err := db.log.AppendFlush(&wal.Record{
		Type:      wal.TypeCheckpointEnd,
		PageID:    wal.NoPage,
		WallClock: now,
		Extra:     wal.EncodeCheckpoint(wal.CheckpointData{BeginLSN: begin, PrevEnd: self, TLI: 1}),
	})
	if err != nil || end != self {
		t.Fatalf("checkpoint end at %v (err %v), named %v", end, err, self)
	}
	db.mu.Lock()
	db.boot.lastCkptEnd = end
	db.mu.Unlock()
	if err := db.writeBoot(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	done := make(chan error, 1)
	go func() {
		db, err := Open(dir, opts)
		if err == nil {
			db.Close()
		}
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Open still walking the checkpoint chain after 20 s")
	}
	if !errors.Is(err, wal.ErrChainCorrupt) || !strings.Contains(err.Error(), "not below it") {
		t.Fatalf("Open over a self-named checkpoint: %v, want wal.ErrChainCorrupt", err)
	}
}
