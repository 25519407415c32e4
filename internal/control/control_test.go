package control

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
)

func boot(s string) Record { return Record{Kind: KindBoot, Body: []byte(s)} }

func ckpt(end wal.LSN) Record {
	return Checkpoint{WallClock: int64(end), Begin: end - 1, End: end, Times: []wal.TimeSample{{WallClock: 1, LSN: end - 1}}}.Record()
}

// TestDecodeErrors: Decode names what stopped it with a typed error and
// returns the records before it. A standby body whose entry count is 1+2^61
// is refused without wrapping the length check into a panic, and a ckpt
// record whose end does not ascend ends the intact prefix.
func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty file: %v, want ErrBadMagic", err)
	}
	good := []Record{boot("b1"), ckpt(10), Standby{Applied: 9, ATT: []wal.ATTEntry{{TxnID: 7, LastLSN: 8, BeginLSN: 2}}}.Record(), {Kind: KindPromoted, Body: []byte{}}}
	whole := Encode(good)
	if recs, n, err := Decode(whole); err != nil || n != len(whole) || !reflect.DeepEqual(recs, good) {
		t.Fatalf("whole file: %d records in %d of %d bytes (%v)", len(recs), n, len(whole), err)
	}
	huge := Standby{Applied: 100, ATT: []wal.ATTEntry{{TxnID: 7}}}.Record()
	binary.LittleEndian.PutUint64(huge.Body[32:], 1+1<<61)
	for name, tail := range map[string]Record{
		"huge standby count":   huge,
		"ckpt not ascending":   ckpt(10),
		"unknown kind":         {Kind: 9, Body: []byte("x")},
		"promoted with a body": {Kind: KindPromoted, Body: []byte("x")},
	} {
		buf := AppendFrame(append([]byte(nil), whole...), tail)
		recs, n, err := Decode(buf)
		if !errors.Is(err, ErrTorn) || n != len(whole) || len(recs) != len(good) {
			t.Fatalf("%s: %d records in %d bytes (%v), want %d in %d and ErrTorn", name, len(recs), n, err, len(good), len(whole))
		}
	}
}

// readAll decodes the file at path, which must be whole.
func readAll(t *testing.T, path string) []Record {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFileWrites: a missing file is created whole by the first write; an
// append follows a whole file; a torn tail makes the next write a rewrite
// of the live records; superseded records are compacted away once they
// outnumber the live ones; and Retain drops ckpt records below its floor
// from the live set and, above its ceiling, from the file at the next write.
func TestFileWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), Name)
	f, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(boot("b1"), ckpt(10)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(boot("b2"), ckpt(20)); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); len(got) != 4 {
		t.Fatalf("%d records after two appends, want 4", len(got))
	}

	// A torn append: reopen, and the next write rewrites the live records.
	buf, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(buf, AppendFrame(nil, ckpt(30))[:7]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(path, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(Record{Kind: KindPromoted}); err != nil {
		t.Fatal(err)
	}
	want := []Record{ckpt(10), boot("b2"), ckpt(20), {Kind: KindPromoted, Body: []byte{}}}
	if got := readAll(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a torn tail the file holds %+v, want %+v", got, want)
	}

	// Superseded boot records stay until they outnumber the live records.
	for i := 0; i < 5; i++ {
		if err := f.Add(boot("b3")); err != nil {
			t.Fatal(err)
		}
	}
	if got := readAll(t, path); len(got) > 2*4 {
		t.Fatalf("%d records for 4 live ones: not compacted", len(got))
	}

	f.Retain(15, 15)
	if err := f.Add(boot("b4")); err != nil {
		t.Fatal(err)
	}
	if got := f.Records(KindCkpt); len(got) != 0 {
		t.Fatalf("live ckpt records %+v after Retain(15, 15), want none", got)
	}
	want = []Record{{Kind: KindPromoted, Body: []byte{}}, boot("b4")}
	if got := readAll(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a Retain above a record the file holds %+v, want %+v", got, want)
	}
}
