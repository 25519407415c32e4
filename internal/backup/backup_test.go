package backup

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/media"
	"repro/internal/wal"
)

type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock {
	return &vclock{t: time.Date(2012, 3, 22, 17, 0, 0, 0, time.UTC)}
}

func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func schema() *row.Schema {
	return &row.Schema{
		Name: "t",
		Columns: []row.Column{
			{Name: "id", Kind: row.KindInt64},
			{Name: "body", Kind: row.KindString},
		},
		KeyCols: 1,
	}
}

func r(id int, body string) row.Row {
	return row.Row{row.Int64(int64(id)), row.String(body)}
}

func exec(t *testing.T, db *engine.DB, fn func(tx *engine.Txn) error) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFullBackupAndRestoreToTime(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", r(i, "gen1")); err != nil {
				return err
			}
		}
		return nil
	})

	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pages == 0 || m.BackupLSN == 0 {
		t.Fatalf("manifest: %+v", m)
	}

	// More committed work after the backup, in two generations.
	gen2At := clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Update("t", r(i, "gen2")); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 100; i < 150; i++ {
			if err := tx.Insert("t", r(i, "gen3")); err != nil {
				return err
			}
		}
		return nil
	})

	// Restore to just after gen2's commit: sees gen2 but not gen3.
	rst, err := RestoreToTime(m, db.Log(), gen2At.Add(time.Second), filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	n, err := rst.CountRows("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("restored rows = %d, want 100", n)
	}
	rr, ok, err := rst.Get("t", row.Row{row.Int64(10)})
	if err != nil || !ok {
		t.Fatalf("restored get: ok=%v err=%v", ok, err)
	}
	if rr[1].Str != "gen2" {
		t.Fatalf("restored row = %v, want gen2", rr)
	}
	if _, ok, _ := rst.Get("t", row.Row{row.Int64(120)}); ok {
		t.Fatal("restore replayed past the target time")
	}
}

func TestRestoreAtBackupPoint(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "only")) })

	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := RestoreToLSN(m, db.Log(), m.BackupLSN, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rr, ok, err := rst.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok || rr[1].Str != "only" {
		t.Fatalf("restore at backup point: %v ok=%v err=%v", rr, ok, err)
	}
}

func TestRestoreUndoesInFlight(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "committed")) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// In-flight at the restore target.
	inflight, _ := db.Begin()
	if err := inflight.Update("t", r(1, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	split := db.Log().NextLSN() - 1
	rst, err := RestoreToLSN(m, db.Log(), split, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rr, ok, err := rst.Get("t", row.Row{row.Int64(1)})
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if rr[1].Str != "committed" {
		t.Fatalf("restore exposed uncommitted data: %v", rr)
	}
	inflight.Rollback()
}

// TestRestoreUndoesATransactionInFlightAtTheBackup: a transaction in flight
// when the backup was taken, and silent from then to the restore target, is
// in the backup image with its uncommitted change but in no record the
// restore replays; the analysis seed from the backup checkpoint's ATT is what
// gets it undone, as in crash recovery.
func TestRestoreUndoesATransactionInFlightAtTheBackup(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "committed")) })
	inflight, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Rollback()
	if err := inflight.Update("t", r(1, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(2, "later")) })
	rst, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rr, ok, err := rst.Get("t", row.Row{row.Int64(1)}); err != nil || !ok || rr[1].Str != "committed" {
		t.Fatalf("row 1 restored as %v ok=%v err=%v, want the committed version", rr, ok, err)
	}
}

// TestRestoreUndoOfAnAllocRecordWithoutUndoByteIsChainCorrupt: an in-flight
// transaction's allocation bitmap record that carries no undo byte fails the
// restore with wal.ErrChainCorrupt. The restore's own copy of that undo read
// the byte unchecked and panicked.
func TestRestoreUndoOfAnAllocRecordWithoutUndoByteIsChainCorrupt(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const txn = 1 << 40
	begin, err := db.Log().Append(&wal.Record{Type: wal.TypeBegin, TxnID: txn, PageID: wal.NoPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Append(&wal.Record{Type: wal.TypeAllocBits, TxnID: txn, PrevLSN: begin,
		PageID: 1, Slot: 0, NewData: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", r(1, "x")) })
	_, err = RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), nil)
	if !errors.Is(err, wal.ErrChainCorrupt) {
		t.Fatalf("restore undo of an alloc record without its undo byte: %v, want wal.ErrChainCorrupt", err)
	}
}

func TestRestoreRejectsPreBackupTarget(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreToLSN(m, db.Log(), m.BackupLSN-10, filepath.Join(dir, "x.db"), nil); !errors.Is(err, ErrBeforeBackup) {
		t.Fatalf("restore before the backup point: %v, want ErrBeforeBackup", err)
	}
}

// TestRestoreBelowTruncationRefused: a restore whose backup predates the
// log's truncation point is refused with wal.ErrTruncated. Manager.Scan
// starts a scan from below the point at the point, so an unchecked restore
// skips the 50 rows inserted into t after the backup, replays u's creation
// and row, and returns no error.
func TestRestoreBelowTruncationRefused(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", r(i, "after-backup")); err != nil {
				return err
			}
		}
		return nil
	})
	// A retention cut past the backup LSN, at a record boundary.
	cut := db.Log().NextLSN()
	if err := db.Log().Truncate(cut); err != nil {
		t.Fatal(err)
	}
	if cut <= m.BackupLSN {
		t.Fatalf("cut %v does not pass the backup LSN %v; test layout broken", cut, m.BackupLSN)
	}
	clock.Advance(time.Minute)
	u := schema()
	u.Name = "u"
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(u) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("u", r(1, "after-cut")) })

	if rst, err := RestoreToTime(m, db.Log(), clock.Now(), filepath.Join(dir, "time.db"), nil); !errors.Is(err, wal.ErrTruncated) {
		if err == nil {
			n, _ := rst.CountRows("t", nil, nil)
			rst.Close()
			t.Fatalf("RestoreToTime below the truncation point succeeded with %d rows in t (50 were inserted); want wal.ErrTruncated", n)
		}
		t.Fatalf("RestoreToTime below the truncation point: %v, want wal.ErrTruncated", err)
	}
	if _, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "lsn.db"), nil); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("RestoreToLSN below the truncation point: %v, want wal.ErrTruncated", err)
	}
}

func TestBackupAndRestoreChargeSequentialIO(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	dataDev := media.New(media.SAS(), nil)
	db, err := engine.Open(filepath.Join(dir, "db"), engine.Options{Clock: clock, DataDevice: dataDev})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("t", r(i, fmt.Sprintf("row-%04d", i))); err != nil {
				return err
			}
		}
		return nil
	})

	bakDev := media.New(media.SAS(), nil)
	m, err := Full(db, filepath.Join(dir, "full.bak"), bakDev)
	if err != nil {
		t.Fatal(err)
	}
	if bakDev.Stats.SeqWrites.Load() == 0 || bakDev.Stats.RandWrites.Load() != 0 {
		t.Fatalf("backup writes should be sequential: %+v", bakDev.Stats.Snapshot())
	}

	rstDev := media.New(media.SAS(), nil)
	rst, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), rstDev)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rstDev.Stats.SeqWrites.Load() < int64(m.Pages) {
		t.Fatalf("restore should write the whole image sequentially: %+v", rstDev.Stats.Snapshot())
	}
	if rstDev.Clock.Elapsed() == 0 {
		t.Fatal("restore charged no time")
	}
}

// openDB opens a database under the durability policy ASOFDB_SYNC selects.
func openDB(t *testing.T, dir string, opts engine.Options) *engine.DB {
	t.Helper()
	p, err := wal.ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	opts.SyncPolicy = p
	db, err := engine.Open(filepath.Join(dir, "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRestoreToTimeBeforeBackupRefused: a restore to a time before the
// backup was taken is refused with ErrBeforeBackup. The image already holds
// the rows as updated after that time, and a restore only rolls forward, so
// an unchecked restore returns the newer rows with a nil error.
func TestRestoreToTimeBeforeBackupRefused(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db := openDB(t, dir, engine.Options{Clock: clock})
	defer db.Close()
	t0 := clock.Now()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", r(i, "gen1")); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Update("t", r(i, "gen2")); err != nil {
				return err
			}
		}
		return nil
	})
	clock.Advance(time.Minute)
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := RestoreToTime(m, db.Log(), t0.Add(time.Second), filepath.Join(dir, "restored.db"), nil)
	if !errors.Is(err, ErrBeforeBackup) {
		if err == nil {
			rr, _, _ := rst.Get("t", row.Row{row.Int64(10)})
			rst.Close()
			t.Fatalf("restore to before the backup succeeded with row 10 = %v; want ErrBeforeBackup", rr)
		}
		t.Fatalf("restore to before the backup: %v, want ErrBeforeBackup", err)
	}
}

// TestRestoreChargesTheLogOnce: a restore reads the log it replays once,
// in one forward pass from the backup LSN: the sequential log reads it
// charges are the range up to the first commit past the target, plus at
// most the rest of the one 128 KiB scan stretch that holds that commit.
// The log device's clock counts one nanosecond per sequential byte read and
// nothing for anything else, such as the undo's random reads of the chain of
// the transaction whose commit is the stop.
func TestRestoreChargesTheLogOnce(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	logDev := media.New(media.Profile{Name: "seq-read-bytes", SeqReadBPS: 1e9, RandReadBPS: 1 << 62}, nil)
	db := openDB(t, dir, engine.Options{Clock: clock, LogDevice: logDev})
	defer db.Close()
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const gens, perGen = 40, 50
	for g := 1; g <= gens; g++ {
		clock.Advance(time.Second)
		exec(t, db, func(tx *engine.Txn) error {
			for i := 0; i < perGen; i++ {
				if err := tx.Insert("t", r(g*perGen+i, fmt.Sprintf("gen%02d-%0200d", g, i))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	target := m.TakenAt.Add(31 * time.Second)

	before := logDev.Clock.Elapsed()
	rst, err := RestoreToTime(m, db.Log(), target, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	charged := int64(logDev.Clock.Elapsed() - before)
	n, err := rst.CountRows("t", nil, nil)
	rst.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 31*perGen {
		t.Fatalf("restored %d rows, want the %d of the 31 generations at or before the target", n, 31*perGen)
	}

	stop := wal.NilLSN
	if err := db.Log().Scan(m.BackupLSN, func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeCommit && rec.WallClock > target.UnixNano() {
			stop = rec.LSN
			return false, nil
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if stop == wal.NilLSN {
		t.Fatal("no commit past the target; test layout broken")
	}
	replayed := int64(stop - m.BackupLSN)
	if limit := replayed + 128<<10; charged > limit {
		t.Fatalf("restore charged %d B of sequential log reads for %d B replayed (%.2fx), want at most %d", charged, replayed, float64(charged)/float64(replayed), limit)
	}
	t.Logf("restore charged %d B of sequential log reads for %d B replayed", charged, replayed)
}

// TestRestoreStopRulesAgree: RestoreToTime stops at the first commit past the
// target and undoes every transaction without a commit by then;
// RestoreToLSN at the newest commit at or before the target never sees
// those transactions. Between the two lie three losers — one that created a
// table and inserted into it, one rolled back halfway (its CLRs logged, its
// abort after the stop), and one whose inserts split leaves — and the
// committing transaction's own insert. Both restores list the same tables
// and the same rows in each.
func TestRestoreStopRulesAgree(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db := openDB(t, dir, engine.Options{Clock: clock})
	defer db.Close()
	for _, name := range []string{"t", "a", "b", "s"} {
		sc := schema()
		sc.Name = name
		exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(sc) })
		exec(t, db, func(tx *engine.Txn) error {
			for i := 0; i < 20; i++ {
				if err := tx.Insert(name, r(i, "before-backup")); err != nil {
					return err
				}
			}
			return nil
		})
	}
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	begin := func() *engine.Txn {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The newest commit at or before the target: the split.
	clock.Advance(time.Minute)
	base := begin()
	for _, name := range []string{"t", "a", "b", "s"} {
		must(base.Update(name, r(3, "split")))
	}
	a, err := base.Table("a")
	must(err)
	aLock := base.TreeLock(a.Root)
	must(base.Commit())
	split := base.CommitLSN()
	target := clock.Now().Add(30 * time.Second)

	stopper := begin()
	must(stopper.Insert("t", r(100, "stop")))
	halfway := begin()
	must(halfway.Insert("a", r(100, "halfway")))
	must(halfway.Update("a", r(4, "halfway")))
	for i := 101; i < 104; i++ {
		must(halfway.Insert("b", r(i, "halfway")))
	}
	splitter := begin()
	defer splitter.Rollback()
	for i := 100; i < 400; i++ {
		must(splitter.Insert("s", r(i, fmt.Sprintf("splitter-%0200d", i))))
	}
	creator := begin()
	defer creator.Rollback()
	n := schema()
	n.Name = "n"
	must(creator.CreateTable(n))
	must(creator.Insert("n", r(1, "created")))

	// Roll halfway back until its undo reaches table a, whose tree lock is
	// held here: its three CLRs on b are logged, its abort is not.
	from := db.Log().NextLSN()
	aLock.Lock()
	rolledBack := make(chan error, 1)
	go func() { rolledBack <- halfway.Rollback() }()
	for clrs := 0; clrs < 3; {
		clrs = 0
		if err := db.Log().Scan(from, func(rec *wal.Record) (bool, error) {
			if rec.Type == wal.TypeCLR && rec.TxnID == halfway.ID() {
				clrs++
			}
			return true, nil
		}); err != nil {
			aLock.Unlock()
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	clock.Advance(time.Minute)
	err = stopper.Commit()
	aLock.Unlock()
	must(err)
	must(<-rolledBack)
	// The log past the split holds what the test is about: halfway's three
	// CLRs before the stop and its abort after it, and splitter's splits.
	var clrs, smos int
	var stop, abort wal.LSN
	must(db.Log().Scan(split, func(rec *wal.Record) (bool, error) {
		switch {
		case rec.LSN == split:
		case rec.TxnID == halfway.ID() && rec.Type == wal.TypeCLR && stop == wal.NilLSN:
			clrs++
		case rec.TxnID == halfway.ID() && rec.Type == wal.TypeAbort:
			abort = rec.LSN
		case rec.TxnID == splitter.ID() && rec.Flags&wal.FlagNTA != 0:
			smos++
		case rec.Type == wal.TypeCommit && stop == wal.NilLSN:
			stop = rec.LSN
		}
		return true, nil
	}))
	if clrs != 3 || stop == wal.NilLSN || abort < stop || smos == 0 {
		t.Fatalf("log past the split: %d CLRs before the stop at %v, abort at %v, %d split records; test layout broken", clrs, stop, abort, smos)
	}

	byTime, err := RestoreToTime(m, db.Log(), target, filepath.Join(dir, "time.db"), nil)
	must(err)
	defer byTime.Close()
	byLSN, err := RestoreToLSN(m, db.Log(), split, filepath.Join(dir, "lsn.db"), nil)
	must(err)
	defer byLSN.Close()

	contents := func(rst *Restored) map[string][]string {
		tables, err := rst.Tables()
		must(err)
		out := make(map[string][]string)
		for _, tbl := range tables {
			rows := []string{}
			must(rst.Scan(tbl.Name, nil, nil, func(rr row.Row) bool {
				rows = append(rows, fmt.Sprint(rr))
				return true
			}))
			out[tbl.Name] = rows
		}
		return out
	}
	got, want := contents(byTime), contents(byLSN)
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("restored tables: by time %d, by LSN %d; want t, a, b and s", len(got), len(want))
	}
	for name, rows := range want {
		if !slices.Equal(got[name], rows) {
			t.Fatalf("table %s: restored by time %d rows %v, by LSN %d rows %v", name, len(got[name]), got[name], len(rows), rows)
		}
		if len(rows) != 20 {
			t.Fatalf("table %s: %d rows restored, want the 20 committed", name, len(rows))
		}
	}
}

// TestRestoreReadsInRuns: a restore redoes through the shared batch redo, so
// the restored pool reads the pages a stretch of log names ahead in runs of
// consecutive page ids, as crash recovery does, and not one read per page.
func TestRestoreReadsInRuns(t *testing.T) {
	clock := newVClock()
	dir := t.TempDir()
	db := openDB(t, dir, engine.Options{Clock: clock})
	defer db.Close()
	body := func(prefix string, i int) string { return fmt.Sprintf("%s%0399d", prefix, i) }
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(schema()) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 1200; i++ {
			if err := tx.Insert("t", r(i, body("i", i))); err != nil {
				return err
			}
		}
		return nil
	})
	m, err := Full(db, filepath.Join(dir, "full.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf of t, and so well over 32 consecutive ones, changes.
	clock.Advance(time.Minute)
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 1200; i++ {
			if err := tx.Update("t", r(i, body("u", i))); err != nil {
				return err
			}
		}
		return nil
	})
	rst, err := RestoreToLSN(m, db.Log(), db.Log().NextLSN()-1, filepath.Join(dir, "restored.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	st := rst.Pool().Stats()
	if st.Reads < 32 || st.ReadIOs*4 > st.Reads {
		t.Fatalf("restore read %d pages in %d reads, want at least 32 pages at 4 or more per read", st.Reads, st.ReadIOs)
	}
	t.Logf("restore read %d pages in %d reads", st.Reads, st.ReadIOs)
	if rr, ok, err := rst.Get("t", row.Row{row.Int64(700)}); err != nil || !ok || rr[1].Str != body("u", 700) {
		t.Fatalf("restored row 700 = %v ok=%v err=%v, want its update", rr, ok, err)
	}
}
