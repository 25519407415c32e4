package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/control"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// TestConcurrentCheckpoints: two goroutines each take 50 checkpoints while
// commits trigger auto checkpoints. Every control append and rewrite goes
// through the control file's one mutex, so none fails, and the index read
// back after a crash is the one the running system held.
func TestConcurrentCheckpoints(t *testing.T) {
	opts := ckptTestOptions(t)
	opts.CheckpointEvery = 16 << 10
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50 && errs[g] == nil; i++ {
				if g < 2 {
					errs[g] = db.Checkpoint()
					continue
				}
				tx, err := db.Begin()
				if err == nil {
					err = tx.Insert("t", testRow(i, strings.Repeat("c", 1024), i))
				}
				if err == nil {
					err = tx.Commit()
				}
				errs[g] = err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, db.BackgroundCheckpointErr())...); err != nil {
		t.Fatal(err)
	}
	if db.CheckpointCount.Load() <= 100 {
		t.Fatalf("%d checkpoints, want auto checkpoints beside the 100 taken", db.CheckpointCount.Load())
	}
	want := db.CheckpointIndex()
	db.Crash()
	db, _ = openCounted(t, dir, opts)
	if got := db.CheckpointIndex(); !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("index after reopen %+v, want %+v first", got, want)
	}
}

// stampCRCs recomputes the CRC of every frame the length fields lay out
// after the magic, so mutated kinds and bodies reach the decoders behind it.
func stampCRCs(buf []byte) []byte {
	out := append([]byte(nil), buf...)
	for off := len(control.Encode(nil)); off+9 <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n < 0 || n > len(out)-off-9 {
			break
		}
		binary.LittleEndian.PutUint32(out[off+5+n:], crc32.ChecksumIEEE(out[off+4:off+5+n]))
		off += n + 9
	}
	return out
}

// FuzzControlLog: the control file is the first thing Open reads. Decoding
// it never panics, with the CRCs as found or stamped to match the mutated
// bytes. It returns the longest intact prefix: the records decoded re-encode
// to exactly that prefix, err is nil exactly when the prefix is the whole
// input (ErrBadMagic without the magic, ErrTorn past the prefix), and every cut of the prefix decodes to the records whose frames end
// at or before the cut, so a torn tail costs only the records it tore. Every
// record's body decodes as its kind to a value that re-encodes to the same
// body; a boot body, which need not decode (Open then falls back to page 0),
// decodes only to a block that re-encodes to exactly that body. Seeds under
// testdata/fuzz are control files that real checkpoints, standby checkpoints
// and promotions wrote.
func FuzzControlLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, b := range [][]byte{buf, stampCRCs(buf)} {
			recs, intact, err := control.Decode(b)
			if intact == 0 {
				if !errors.Is(err, control.ErrBadMagic) {
					t.Fatalf("no magic in %d bytes, err %v", len(b), err)
				}
				continue
			}
			if (err == nil) != (intact == len(b)) || (err != nil && !errors.Is(err, control.ErrTorn)) {
				t.Fatalf("intact %d of %d bytes, err %v", intact, len(b), err)
			}
			enc := control.Encode(nil)
			ends := []int{len(enc)}
			for _, r := range recs {
				enc = control.AppendFrame(enc, r)
				ends = append(ends, len(enc))
				checkBody(t, r)
			}
			if !bytes.Equal(enc, b[:intact]) {
				t.Fatalf("%d records re-encode to %d bytes, not the %d-byte intact prefix", len(recs), len(enc), intact)
			}
			// About a hundred cuts whatever the length, so an input of many
			// frames costs linear time.
			for cut := ends[0]; cut <= intact; cut += 1 + cut%(13+intact/64) {
				got, n, _ := control.Decode(b[:cut])
				k := 0
				for k+1 < len(ends) && ends[k+1] <= cut {
					k++
				}
				if n != ends[k] || len(got) != k || (k > 0 && !reflect.DeepEqual(got, recs[:k])) {
					t.Fatalf("cut at %d: %d records in %d bytes, want %d in %d", cut, len(got), n, k, ends[k])
				}
			}
		}
	})
}

// checkBody decodes r's body as its kind and checks that it re-encodes.
func checkBody(t *testing.T, r control.Record) {
	t.Helper()
	var back []byte
	switch r.Kind {
	case control.KindBoot:
		checkBootBody(t, r.Body)
		return
	case control.KindCkpt:
		c, ok := control.ParseCheckpoint(r.Body)
		if !ok {
			t.Fatalf("a ckpt body Decode accepted does not parse")
		}
		back = c.Record().Body
	case control.KindStandby:
		s, ok := control.ParseStandby(r.Body)
		if !ok {
			t.Fatalf("a standby body Decode accepted does not parse")
		}
		back = s.Record().Body
	default:
		back = []byte{}
	}
	if !bytes.Equal(back, r.Body) {
		t.Fatalf("%d body of %d bytes re-encodes to %d bytes that differ", r.Kind, len(r.Body), len(back))
	}
}

// checkBootBody decodes body as a boot record's body, as Open does, and
// checks that a block it decodes re-encodes to exactly body. A body that
// does not decode is refused; Open then falls back to page 0.
func checkBootBody(t *testing.T, body []byte) {
	t.Helper()
	b, err := decodeBoot(body, false)
	if err != nil {
		return
	}
	if again := b.encode(); !bytes.Equal(again, body) {
		t.Fatalf("boot block %+v from %x re-encodes to %x", b, body, again)
	}
}

// FuzzBootMeta: a boot record's body is the first thing recovery reads, and
// the decoder page 0 shares. Decoding it never panics, and a body that
// decodes re-encodes to exactly its bytes. Seeds under testdata/fuzz are a
// 40-byte block with no timeline extension (pre-timeline), which is refused,
// and the boot body a second promotion wrote, carrying two forks.
func FuzzBootMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBootBody(t, body)
	})
}

// TestBootBlockStrict: a boot record's body decodes only when it is exactly
// one encoded block naming timeline 1 or later with zero padding, and page 0
// only when it is zero past the block.
func TestBootBlockStrict(t *testing.T) {
	b := bootBlock{
		roots:       catalog.Roots{Tables: 2, Names: 3, Columns: 4},
		lastCkptEnd: 900,
		createdAt:   1e18,
		tli:         2,
		history:     wal.TimelineHistory{{TLI: 1, End: 500}},
	}
	body := b.encode()
	if got, err := decodeBoot(body, false); err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("boot round trip: %+v, %v", got, err)
	}
	padded := slices.Clone(body)
	padded[20] = 1
	noTLI := b
	noTLI.tli, noTLI.history = 0, nil
	for name, bad := range map[string][]byte{
		"one trailing byte":   append(slices.Clone(body), 0),
		"no extension":        body[:bootBlockSize],
		"timeline 0":          noTLI.encode(),
		"non-zero padding":    padded,
		"fork list cut short": body[:len(body)-1],
	} {
		if _, err := decodeBoot(bad, false); err == nil {
			t.Errorf("boot body with %s decoded", name)
		}
	}
	pg := make([]byte, page.Size)
	copy(pg[bootPayload:], body)
	if got, err := decodeBoot(pg[bootPayload:], true); err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("boot page round trip: %+v, %v", got, err)
	}
	pg[page.Size-1] = 1
	if _, err := decodeBoot(pg[bootPayload:], true); err == nil {
		t.Error("a boot page with a byte past its block decoded")
	}
}

// sameRecords reports whether a and b hold the same records in order.
func sameRecords(a, b []control.Record) bool {
	return slices.EqualFunc(a, b, func(x, y control.Record) bool {
		return x.Kind == y.Kind && bytes.Equal(x.Body, y.Body)
	})
}

// FuzzCkptIndex: a control file's ckpt records are the checkpoint index Open
// starts from. The file opens to an index that is exactly the ckpt records
// of its intact prefix in file order, each parsing to a checkpoint whose end
// LSN is above the one before, and beside them to the newest record of each
// other kind. Retain, which cuts the index to the log's truncation point and
// the boot record's checkpoint, keeps exactly the ckpt records whose end
// LSNs lie in its range. Seeds under testdata/fuzz are control files holding
// the first one and the first three ckpt records real checkpoints wrote.
func FuzzCkptIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		path := filepath.Join(t.TempDir(), control.Name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		ctl, err := control.Open(path, false)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _ := control.Decode(buf)
		var index []control.Record
		var ends []wal.LSN
		newest := map[control.Kind][]control.Record{}
		for _, r := range recs {
			if r.Kind != control.KindCkpt {
				newest[r.Kind] = []control.Record{r}
				continue
			}
			c, ok := control.ParseCheckpoint(r.Body)
			if !ok || (len(ends) > 0 && c.End <= ends[len(ends)-1]) || c.End == wal.NilLSN {
				t.Fatalf("ckpt record %d of the index: %+v (parsed %v) after end %v", len(index), c, ok, ends)
			}
			index = append(index, r)
			ends = append(ends, c.End)
		}
		if got := ctl.Records(control.KindCkpt); !sameRecords(got, index) {
			t.Fatalf("file opens to %d ckpt records, want the %d of its intact prefix", len(got), len(index))
		}
		for _, k := range []control.Kind{control.KindBoot, control.KindStandby, control.KindPromoted} {
			if got := ctl.Records(k); !sameRecords(got, newest[k]) {
				t.Fatalf("kind %d: file opens to %d records, want the newest of %d", k, len(got), len(newest[k]))
			}
		}
		if len(ends) == 0 {
			return
		}
		lo, hi := ends[len(ends)/3], ends[2*len(ends)/3]
		ctl.Retain(lo, hi)
		want := slices.DeleteFunc(index, func(r control.Record) bool {
			c, _ := control.ParseCheckpoint(r.Body)
			return c.End < lo || c.End > hi
		})
		if got := ctl.Records(control.KindCkpt); !sameRecords(got, want) {
			t.Fatalf("Retain(%v, %v) keeps %d ckpt records, want %d", lo, hi, len(got), len(want))
		}
	})
}
