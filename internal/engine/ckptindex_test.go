package engine

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/storage/media"
	"repro/internal/wal"
)

// ckptHistory gives a database in dir n checkpoints, each after enough 1 KiB
// rows for several time→LSN samples, then more rows past the last
// checkpoint, and abandons it with Crash. It returns the crashed database,
// whose in-memory indexes are what the running system had built.
func ckptHistory(t *testing.T, dir string, opts Options, n int) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	body := strings.Repeat("x", 1024)
	id := 0
	commits := func(k int) {
		for i := 0; i < k; i++ {
			id++
			mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(id, body, id)) })
			opts.Clock.(*clock.Mock).Advance(time.Second)
		}
	}
	for i := 0; i < n; i++ {
		commits(150)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	commits(150)
	db.Crash()
	return db
}

// openCounted opens dir with a fresh log device and returns the database and
// the random log reads Open made.
func openCounted(t *testing.T, dir string, opts Options) (*DB, int64) {
	t.Helper()
	opts.LogDevice = media.New(media.SSD(), nil)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, opts.LogDevice.Stats.RandReads.Load()
}

func ckptTestOptions(t *testing.T) Options {
	return Options{SyncPolicy: testSyncPolicy(t), Clock: clock.NewMock(time.Unix(1_000_000, 0))}
}

// TestOpenReadsCheckpointIndex: Open of a database with 24 checkpoints reads
// the checkpoint index from its control file, not from the chain of
// checkpoint-end records, and makes at most two random log reads (recovery's
// own read of the checkpoint it starts from). The index and the time→LSN
// samples equal what the chain walk builds, which is what Open builds from
// page 0's boot block when the control file is gone, and recovery's scan adds
// back the samples the running system took after the last checkpoint: the
// recovered samples are the crashed system's.
func TestOpenReadsCheckpointIndex(t *testing.T) {
	opts := ckptTestOptions(t)
	dir := t.TempDir()
	crashed := ckptHistory(t, dir, opts, 24)
	wantMarks := crashed.CheckpointIndex()
	wantSamples := crashed.Log().TimeSamplesSince(wal.NilLSN)
	if len(wantMarks) < 25 || len(wantSamples) < 2*len(wantMarks) {
		t.Fatalf("history has %d checkpoints and %d samples, want ≥ 25 and ≥ 2 per checkpoint", len(wantMarks), len(wantSamples))
	}
	walked := filepath.Join(t.TempDir(), "walked")
	copyDir(t, dir, walked)
	if err := os.Remove(filepath.Join(walked, control.Name)); err != nil {
		t.Fatal(err)
	}

	db, reads := openCounted(t, dir, opts)
	if reads > 2 {
		t.Fatalf("Open made %d random log reads, want ≤ 2", reads)
	}
	wdb, wreads := openCounted(t, walked, opts)
	if wreads < int64(len(wantMarks)) {
		t.Fatalf("Open without the control file made %d random log reads for %d checkpoints: it did not walk", wreads, len(wantMarks))
	}
	marks, samples := db.CheckpointIndex(), db.Log().TimeSamplesSince(wal.NilLSN)
	if !reflect.DeepEqual(marks[:len(wantMarks)], wantMarks) || len(marks) != len(wantMarks)+1 {
		t.Fatalf("index after Open %+v, want the crashed system's %+v and recovery's checkpoint", marks, wantMarks)
	}
	if !reflect.DeepEqual(samples, wantSamples) {
		t.Fatalf("%d samples after Open, the crashed system had %d", len(samples), len(wantSamples))
	}
	if got := wdb.CheckpointIndex(); !reflect.DeepEqual(got, marks) {
		t.Fatalf("walked index %+v, control file's index %+v", got, marks)
	}
	if got := wdb.Log().TimeSamplesSince(wal.NilLSN); !reflect.DeepEqual(got, samples) {
		t.Fatalf("walked samples %v, control file's samples %v", got, samples)
	}
}

// frameEnds returns the end offsets of the control file frames that lie past
// from in buf, a whole control file.
func frameEnds(t *testing.T, buf []byte, from int) []int {
	t.Helper()
	recs, intact, err := control.Decode(buf)
	if err != nil {
		t.Fatalf("control file: %v", err)
	}
	var ends []int
	for off, i := len(control.Encode(nil)), 0; i < len(recs); i++ {
		if off += len(control.AppendFrame(nil, recs[i])); off > from {
			ends = append(ends, off)
		}
	}
	if ends[len(ends)-1] != intact {
		t.Fatalf("frames end at %v, the file at %d", ends, intact)
	}
	return ends
}

// TestCkptIndexCrashWindows: every control file write is one append, so a
// crash before it, inside any of its frames (a torn append), between its
// frames, or after it leaves a file that Open reads as the state before the
// write or after it. Each record kind is written in turn under both sync
// policies, and each cut is opened on a copy of the database:
//
//   - a checkpoint's boot and ckpt records: the index after Open holds every
//     checkpoint, whether the boot record named the last one (Open reads that
//     one record) or not (recovery's scan passes it), and the Open after
//     that reads no checkpoint record;
//   - a standby checkpoint's boot and standby records: the standby record is
//     the one before unless the append is whole;
//   - a promoted record: OpenStandby refuses the directory exactly when the
//     append is whole.
func TestCkptIndexCrashWindows(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncNone, wal.SyncData} {
		opts := ckptTestOptions(t)
		opts.SyncPolicy = policy
		base := t.TempDir()
		db, err := Open(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
		for i := 0; i < 3; i++ {
			mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(i, "v", i)) })
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		standby := control.Standby{Applied: 77, MaxTxn: 9, ATT: []wal.ATTEntry{{TxnID: 9, LastLSN: 70, BeginLSN: 60}}}
		writes := []struct {
			kind   string
			frames int
			write  func() error
			check  func(t *testing.T, dir string, whole bool)
		}{
			{"checkpoint", 2, func() error {
				mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(9, "v", 9)) })
				return db.Checkpoint()
			}, func(t *testing.T, dir string, whole bool) {
				want := db.CheckpointIndex()
				got, _ := openCounted(t, dir, opts)
				if idx := got.CheckpointIndex(); len(idx) < len(want) || !reflect.DeepEqual(idx[:len(want)], want) {
					t.Fatalf("index after Open %+v, want %+v first", idx, want)
				}
				want = got.CheckpointIndex()
				got.Crash()
				got, reads := openCounted(t, dir, opts)
				if idx := got.CheckpointIndex(); !reflect.DeepEqual(idx[:len(want)], want) || reads > 2 {
					t.Fatalf("second Open made %d random log reads, index %+v, want ≤ 2 and %+v first", reads, idx, want)
				}
				got.Crash()
			}},
			{"standby", 2, func() error { return db.FlushStandby(standby.Record()) }, func(t *testing.T, dir string, whole bool) {
				sdb, err := OpenStandby(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sdb.Crash()
				var got []control.Standby
				for _, r := range sdb.Control().Records(control.KindStandby) {
					s, _ := control.ParseStandby(r.Body)
					got = append(got, s)
				}
				if present := reflect.DeepEqual(got, []control.Standby{standby}); present != whole || (!whole && got != nil) {
					t.Fatalf("standby records %+v, want the new one %v", got, whole)
				}
			}},
			{"promoted", 1, func() error { return db.ctl.Add(control.Record{Kind: control.KindPromoted}) }, func(t *testing.T, dir string, whole bool) {
				sdb, err := OpenStandby(dir, opts)
				if err == nil {
					sdb.Crash()
				}
				if refused := errors.Is(err, ErrPromoted); refused != whole || (!refused && err != nil) {
					t.Fatalf("OpenStandby: %v, want refused %v", err, whole)
				}
			}},
		}
		path := filepath.Join(base, control.Name)
		for _, w := range writes {
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.write(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ends := frameEnds(t, after, len(before))
			if len(ends) != w.frames {
				t.Fatalf("%s: the write appended %d frames, want %d", w.kind, len(ends), w.frames)
			}
			cuts := []int{len(before)}
			for i, end := range ends {
				cuts = append(cuts, (cuts[2*i]+end)/2, end)
			}
			for _, cut := range cuts {
				t.Run(policy.String()+"/"+w.kind, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "db")
					copyDir(t, base, dir)
					if err := os.WriteFile(filepath.Join(dir, control.Name), after[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					w.check(t, dir, cut == len(after))
				})
			}
		}
		db.Crash()
	}
}

// TestCkptIndexRepaired: a control file that is missing or not a control
// file costs one walk of the whole chain from page 0's boot block and a
// rewrite; a torn one, one with a garbage tail and one holding a ckpt record
// the chain does not pass through cost a walk down to the last good record
// (none, for the last two) and a rewrite. The Open after that reads no
// checkpoint record, and every Open builds the same index.
func TestCkptIndexRepaired(t *testing.T) {
	opts := ckptTestOptions(t)
	base := t.TempDir()
	crashed := ckptHistory(t, base, opts, 20)
	want := crashed.CheckpointIndex()
	file, err := os.ReadFile(filepath.Join(base, control.Name))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(path string) error{
		"missing": os.Remove,
		"torn": func(path string) error {
			return os.WriteFile(path, file[:len(file)-7], 0o644)
		},
		"garbage tail": func(path string) error {
			return os.WriteFile(path, append(append([]byte(nil), file...), "not a frame"...), 0o644)
		},
		"bad magic": func(path string) error {
			return os.WriteFile(path, append([]byte("NOTCTRL!"), file[8:]...), 0o644)
		},
		"foreign record": func(path string) error {
			// A ckpt record past every checkpoint the chain holds.
			last := want[len(want)-1].End
			return os.WriteFile(path, control.AppendFrame(append([]byte(nil), file...),
				control.Checkpoint{WallClock: 1, Begin: last + 1, End: last + 100}.Record()), 0o644)
		},
	}
	for name, hurt := range damage {
		dir := filepath.Join(t.TempDir(), "db")
		copyDir(t, base, dir)
		if err := hurt(filepath.Join(dir, control.Name)); err != nil {
			t.Fatal(err)
		}
		db, reads := openCounted(t, dir, opts)
		if walksAll := name == "missing" || name == "bad magic"; walksAll && reads < int64(len(want)) {
			t.Fatalf("%s: Open made %d random log reads for %d checkpoints; it did not walk the chain", name, reads, len(want))
		}
		if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) || len(got) != len(want)+1 {
			t.Fatalf("%s: index %+v, want %+v and recovery's checkpoint", name, got, want)
		}
		want2 := db.CheckpointIndex()
		db.Crash()
		db, reads = openCounted(t, dir, opts)
		if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want2)], want2) || reads > 2 {
			t.Fatalf("%s: Open after the rewrite made %d random log reads, index %+v, want ≤ 2 and %+v first", name, reads, got, want2)
		}
	}
}

// TestCkptIndexCompacts: with a retention shorter than the history, the ckpt
// records below the truncation point and the superseded boot records stay in
// the control file until they outnumber the live records, and a reopen reads
// exactly the live index. The file is compacted when a checkpoint appends to
// it, before that checkpoint's retention cut, so after the cut it may hold
// two records more than twice the live ones (the index and the boot record).
func TestCkptIndexCompacts(t *testing.T) {
	opts := ckptTestOptions(t)
	opts.Retention = 5 * time.Minute
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	maxFile := 0
	for i := 0; i < 60; i++ {
		mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(i, "v", i)) })
		opts.Clock.(*clock.Mock).Advance(time.Minute)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, control.Name))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := control.Decode(buf)
		live := len(db.CheckpointIndex()) + 1
		if err != nil || len(recs) > 2*live+2 {
			t.Fatalf("checkpoint %d: control file holds %d records (%v), %d live", i, len(recs), err, live)
		}
		maxFile = max(maxFile, len(recs))
	}
	if live := len(db.CheckpointIndex()) + 1; live > 9 || maxFile <= live {
		t.Fatalf("%d live records, the control file held at most %d: retention or its slack did not show", live, maxFile)
	}
	want := db.CheckpointIndex()
	db.Crash()
	db, _ = openCounted(t, dir, opts)
	if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("reopen built index %+v, want %+v first", got, want)
	}
}

// TestCkptIndexBesideCommits: checkpoints taken while other goroutines
// commit append their ckpt records to the control file in LSN order, once
// each, with the samples the commits left in the time index, so a reopen
// after a crash reads the index the running system held.
func TestCkptIndexBesideCommits(t *testing.T) {
	opts := ckptTestOptions(t)
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	body := strings.Repeat("c", 1024)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40 && errs[g] == nil; i++ {
				if g == 0 {
					errs[g] = db.Checkpoint()
					continue
				}
				tx, err := db.Begin()
				if err == nil {
					err = tx.Insert("t", testRow(g*1000+i, body, i))
				}
				if err == nil {
					err = tx.Commit()
				}
				errs[g] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := db.CheckpointIndex()
	db.Crash()
	buf, err := os.ReadFile(filepath.Join(dir, control.Name))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := control.Decode(buf)
	ckpts := 0
	for _, r := range recs {
		if r.Kind == control.KindCkpt {
			ckpts++
		}
	}
	if err != nil || ckpts != len(want) {
		t.Fatalf("control file holds %d ckpt records (%v), the index %d", ckpts, err, len(want))
	}
	db, _ = openCounted(t, dir, opts)
	if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("index after reopen %+v, want %+v first", got, want)
	}
}
