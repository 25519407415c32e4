package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
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
// the checkpoint index from its sidecar, not from the chain of checkpoint-end
// records, and makes at most two random log reads (recovery's own read of the
// checkpoint it starts from). The index and the time→LSN samples equal what
// the chain walk builds, which is what Open builds when the sidecar is gone,
// and recovery's scan adds back the samples the running system took after
// the last checkpoint: the recovered samples are the crashed system's.
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
	if err := os.Remove(filepath.Join(walked, ckptIndexName)); err != nil {
		t.Fatal(err)
	}

	db, reads := openCounted(t, dir, opts)
	if reads > 2 {
		t.Fatalf("Open made %d random log reads, want ≤ 2", reads)
	}
	wdb, wreads := openCounted(t, walked, opts)
	if wreads < int64(len(wantMarks)) {
		t.Fatalf("Open without the sidecar made %d random log reads for %d checkpoints: it did not walk", wreads, len(wantMarks))
	}
	marks, samples := db.CheckpointIndex(), db.Log().TimeSamplesSince(wal.NilLSN)
	if !reflect.DeepEqual(marks[:len(wantMarks)], wantMarks) || len(marks) != len(wantMarks)+1 {
		t.Fatalf("index after Open %+v, want the crashed system's %+v and recovery's checkpoint", marks, wantMarks)
	}
	if !reflect.DeepEqual(samples, wantSamples) {
		t.Fatalf("%d samples after Open, the crashed system had %d", len(samples), len(wantSamples))
	}
	if got := wdb.CheckpointIndex(); !reflect.DeepEqual(got, marks) {
		t.Fatalf("walked index %+v, sidecar index %+v", got, marks)
	}
	if got := wdb.Log().TimeSamplesSince(wal.NilLSN); !reflect.DeepEqual(got, samples) {
		t.Fatalf("walked samples %v, sidecar samples %v", got, samples)
	}
}

// TestCkptIndexCrashWindows: a crash between a checkpoint's forced end record
// and its sidecar entry leaves the index complete after Open, whether the
// boot record already named the checkpoint (Open reads that one record) or
// not (recovery's scan passes it), and the Open after that reads no
// checkpoint record.
func TestCkptIndexCrashWindows(t *testing.T) {
	for _, bootWritten := range []bool{true, false} {
		opts := ckptTestOptions(t)
		dir := t.TempDir()
		db, err := Open(dir, opts)
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
		saved := map[string][]byte{}
		for _, name := range []string{bootMetaName, ckptIndexName} {
			if saved[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(9, "v", 9)) })
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := db.CheckpointIndex()
		db.Crash()
		// Put back the sidecar as it was before the last checkpoint, and
		// the boot record too if the crash came before it.
		restore := []string{ckptIndexName}
		if !bootWritten {
			restore = append(restore, bootMetaName)
		}
		for _, name := range restore {
			if err := os.WriteFile(filepath.Join(dir, name), saved[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, _ = openCounted(t, dir, opts)
		if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("boot written %v: index after Open %+v, want %+v first", bootWritten, got, want)
		}
		want = db.CheckpointIndex()
		db.Crash()
		db, reads := openCounted(t, dir, opts)
		if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) || reads > 2 {
			t.Fatalf("boot written %v: second Open made %d random log reads, index %+v, want ≤ 2 and %+v first", bootWritten, reads, got, want)
		}
	}
}

// TestCkptIndexRepaired: a sidecar that is missing or not a sidecar costs
// one walk of the whole chain and a rewrite; a torn one, one with a garbage
// tail and one holding an entry the chain does not pass through cost a walk
// down to the last good entry (none, for the last two) and a rewrite. The
// Open after that reads no checkpoint record, and every Open builds the same
// index.
func TestCkptIndexRepaired(t *testing.T) {
	opts := ckptTestOptions(t)
	base := t.TempDir()
	crashed := ckptHistory(t, base, opts, 20)
	want := crashed.CheckpointIndex()
	sidecar, err := os.ReadFile(filepath.Join(base, ckptIndexName))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(path string) error{
		"missing": os.Remove,
		"torn": func(path string) error {
			return os.WriteFile(path, sidecar[:len(sidecar)-7], 0o644)
		},
		"garbage tail": func(path string) error {
			return os.WriteFile(path, append(append([]byte(nil), sidecar...), "not a frame"...), 0o644)
		},
		"bad magic": func(path string) error {
			return os.WriteFile(path, append([]byte("NOTCKPT!"), sidecar[len(ckptIndexMagic):]...), 0o644)
		},
		"foreign entry": func(path string) error {
			// An entry past every checkpoint the chain holds.
			return os.WriteFile(path, appendCkptEntry(append([]byte(nil), sidecar...),
				CkptMark{WallClock: 1, Begin: want[len(want)-1].End + 1, End: want[len(want)-1].End + 100}, nil), 0o644)
		},
	}
	for name, hurt := range damage {
		dir := filepath.Join(t.TempDir(), "db")
		copyDir(t, base, dir)
		if err := hurt(filepath.Join(dir, ckptIndexName)); err != nil {
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

// TestCkptIndexCompacts: with a retention shorter than the history, the
// sidecar's entries below the truncation point stay in the file until they
// outnumber the live ones, and a reopen reads exactly the live index. The
// file is compacted when a checkpoint appends to it, before that
// checkpoint's retention cut, so after the cut it may hold two entries more
// than twice the live ones.
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
		buf, err := os.ReadFile(filepath.Join(dir, ckptIndexName))
		if err != nil {
			t.Fatal(err)
		}
		entries, _, intact, ok := decodeCkptIndex(buf)
		live := len(db.CheckpointIndex())
		if !ok || intact != len(buf) || len(entries) > 2*live+2 {
			t.Fatalf("checkpoint %d: sidecar holds %d entries (intact %v), %d live", i, len(entries), ok && intact == len(buf), live)
		}
		maxFile = max(maxFile, len(entries))
	}
	if live := len(db.CheckpointIndex()); live > 8 || maxFile <= live {
		t.Fatalf("%d live checkpoints, the sidecar held at most %d entries: retention or its slack did not show", live, maxFile)
	}
	want := db.CheckpointIndex()
	db.Crash()
	db, _ = openCounted(t, dir, opts)
	if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("reopen built index %+v, want %+v first", got, want)
	}
}

// stampCkptCRCs recomputes the CRC of every frame the length fields lay out
// after the magic, so mutated bodies reach the decoder behind the CRC.
func stampCkptCRCs(buf []byte) []byte {
	out := append([]byte(nil), buf...)
	for off := len(ckptIndexMagic); off+ckptFrameOverhead <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n < 0 || n > len(out)-off-ckptFrameOverhead {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4+n:], crc32.ChecksumIEEE(out[off+4:off+4+n]))
		off += n + ckptFrameOverhead
	}
	return out
}

// FuzzCkptIndex: the checkpoint-index sidecar is what Open reads first after
// boot.meta. Decoding it never panics, with the CRCs as found or stamped to
// match the mutated bytes; the entries decoded re-encode to exactly the
// intact prefix; and every cut of that prefix decodes to the entries whose
// frames end at or before the cut — a torn tail costs only the entries it
// tore. Seeds under testdata/fuzz are sidecars checkpoints wrote: one entry
// without samples, and three entries carrying samples.
func FuzzCkptIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, b := range [][]byte{buf, stampCkptCRCs(buf)} {
			entries, _, intact, ok := decodeCkptIndex(b)
			if !ok {
				continue
			}
			enc := []byte(ckptIndexMagic)
			ends := []int{len(enc)}
			for _, e := range entries {
				enc = appendCkptEntry(enc, e.mark, e.times)
				ends = append(ends, len(enc))
			}
			if !bytes.Equal(enc, b[:intact]) {
				t.Fatalf("%d entries re-encode to %d bytes, not the %d-byte intact prefix", len(entries), len(enc), intact)
			}
			for cut := len(ckptIndexMagic); cut <= intact; cut += 1 + cut%13 {
				got, _, n, _ := decodeCkptIndex(b[:cut])
				k := 0
				for k+1 < len(ends) && ends[k+1] <= cut {
					k++
				}
				if n != ends[k] || !reflect.DeepEqual(got, entries[:k]) {
					t.Fatalf("cut at %d: %d entries in %d bytes, want %d in %d", cut, len(got), n, k, ends[k])
				}
			}
		}
	})
}

// TestCkptIndexBesideCommits: checkpoints taken while other goroutines
// commit append their entries to the sidecar in LSN order, once each, with
// the samples the commits left in the time index, so a reopen after a crash
// reads the index the running system held.
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
	buf, err := os.ReadFile(filepath.Join(dir, ckptIndexName))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, intact, ok := decodeCkptIndex(buf)
	if !ok || intact != len(buf) || len(entries) != len(want) {
		t.Fatalf("sidecar holds %d entries (whole: %v), the index %d", len(entries), ok && intact == len(buf), len(want))
	}
	db, _ = openCounted(t, dir, opts)
	if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("index after reopen %+v, want %+v first", got, want)
	}
}
