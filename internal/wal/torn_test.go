package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tearLogAt truncates the store in dir so exactly the first `keep` logical
// log bytes survive — segments past the cut are deleted, the one containing
// it is truncated mid-file. This simulates a crash torn at an arbitrary
// byte, including inside a sealed segment.
func tearLogAt(t *testing.T, dir string, keep int64) {
	t.Helper()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		base := int64(s.Base - 1)
		switch {
		case base >= keep:
			if err := os.Remove(s.Path); err != nil {
				t.Fatal(err)
			}
		case base+s.Bytes > keep:
			if err := os.Truncate(s.Path, keep-base+segHeaderSize); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// appendCommits writes n small records and flushes, returning the end LSN
// of each record (the boundary after it).
func appendCommits(t *testing.T, m *Manager, n int) []LSN {
	t.Helper()
	var ends []LSN
	for i := 0; i < n; i++ {
		r := &Record{Type: TypeCommit, TxnID: uint64(i + 1), PageID: NoPage, WallClock: int64(1000 + i)}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, lsn+LSN(r.ApproxSize())-1)
	}
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}
	return ends
}

// TestScanStopsAtTornTailAfterReopen: a log file cut mid-record (a crash tore the
// final write) scans cleanly up to the last intact CRC boundary.
func TestScanStopsAtTornTailAfterReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	ends := appendCommits(t, m, 10)
	m.Close()

	// Tear the log 5 bytes into the last record.
	tearLogAt(t, path, int64(ends[8])+5)

	m2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var got []LSN
	err = m2.Scan(1, func(rec *Record) (bool, error) {
		got = append(got, rec.LSN+LSN(rec.ApproxSize())-1)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || got[len(got)-1] != ends[8] {
		t.Fatalf("scan after tear saw %d records ending %v, want 9 ending %v", len(got), got[len(got)-1], ends[8])
	}
}

// TestRewindTruncatesTornTailAndResumes: Rewind restores append integrity
// after a tear — new records land at the valid boundary and scan cleanly.
func TestRewindTruncatesTornTailAndResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	ends := appendCommits(t, m, 6)
	m.Close()
	tearLogAt(t, path, int64(ends[4])+3)

	m2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := m2.Rewind(ends[4]); err != nil {
		t.Fatal(err)
	}
	if got := m2.NextLSN(); got != ends[4]+1 {
		t.Fatalf("next LSN after rewind %v, want %v", got, ends[4]+1)
	}
	r := &Record{Type: TypeCommit, TxnID: 99, PageID: NoPage, WallClock: 9999}
	lsn, err := m2.AppendFlush(r)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != ends[4]+1 {
		t.Fatalf("resumed append at %v, want %v", lsn, ends[4]+1)
	}
	count, sawNew := 0, false
	err = m2.Scan(1, func(rec *Record) (bool, error) {
		count++
		if rec.TxnID == 99 {
			sawNew = true
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 6 || !sawNew {
		t.Fatalf("post-rewind scan saw %d records (new=%v), want 6 with the resumed record", count, sawNew)
	}
}

// TestAppendRawMatchesAppend: raw ingestion (the replica path) produces a
// byte-identical, readable log.
func TestAppendRawMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	src, err := Open(filepath.Join(dir, "src.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	appendCommits(t, src, 20)

	raw := make([]byte, src.Size())
	if n, err := src.ReadDurable(raw, 0); err != nil || n != len(raw) {
		t.Fatalf("read durable: n=%d err=%v", n, err)
	}

	dst, err := Open(filepath.Join(dir, "dst.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	end, err := dst.AppendRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if end != LSN(len(raw)) {
		t.Fatalf("AppendRaw end %v, want %v", end, len(raw))
	}
	var srcIDs, dstIDs []uint64
	collect := func(ids *[]uint64) func(*Record) (bool, error) {
		return func(rec *Record) (bool, error) {
			*ids = append(*ids, rec.TxnID)
			return true, nil
		}
	}
	if err := src.Scan(1, collect(&srcIDs)); err != nil {
		t.Fatal(err)
	}
	if err := dst.Scan(1, collect(&dstIDs)); err != nil {
		t.Fatal(err)
	}
	if len(srcIDs) != 20 || len(srcIDs) != len(dstIDs) {
		t.Fatalf("scan counts diverge: src %d dst %d", len(srcIDs), len(dstIDs))
	}
	for i := range srcIDs {
		if srcIDs[i] != dstIDs[i] {
			t.Fatalf("record %d diverges: %d vs %d", i, srcIDs[i], dstIDs[i])
		}
	}
}

// TestNextFrameTornAndCorrupt covers the stream parser's three outcomes:
// complete, incomplete (wait for more), corrupt (reject).
func TestNextFrameTornAndCorrupt(t *testing.T) {
	r := &Record{Type: TypeCommit, TxnID: 7, PageID: NoPage, WallClock: 42}
	framed := frame(nil, r)

	body, size, ok, err := NextFrame(framed)
	if err != nil || !ok || size != len(framed) {
		t.Fatalf("complete frame: ok=%v size=%d err=%v", ok, size, err)
	}
	rec, err := DecodeBody(body)
	if err != nil || rec.TxnID != 7 {
		t.Fatalf("decode: %v %+v", err, rec)
	}

	for cut := 1; cut < len(framed); cut++ {
		if _, _, ok, err := NextFrame(framed[:cut]); err != nil || ok {
			t.Fatalf("cut at %d: ok=%v err=%v, want incomplete", cut, ok, err)
		}
	}

	bad := append([]byte(nil), framed...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, _, err := NextFrame(bad); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

// FuzzNextFrame: the frame parser never panics and a complete frame it
// returns is consistent with FrameSize. When the input past the frame
// header is a decodable body, the frame built from it parses back to exactly
// that body and size, each of its strict prefixes is incomplete (ok=false,
// err=nil), and with one byte changed it is incomplete or ErrFrameCorrupt,
// never a different body. Seeds are frames cut from
// internal/asof/testdata/wholerow-log, one or two of each record kind.
func FuzzNextFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte, cut, flip uint16) {
		body, size, ok, err := NextFrame(buf)
		switch {
		case err != nil:
			if ok || !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("ok=%v with error %v", ok, err)
			}
		case ok:
			if n, sized := FrameSize(buf); !sized || n != size || size != FrameHeaderSize+len(body) ||
				!bytes.Equal(body, buf[FrameHeaderSize:size]) {
				t.Fatalf("frame of %d bytes: FrameSize %d/%v, body %d bytes", size, n, sized, len(body))
			}
		}
		if len(buf) < FrameHeaderSize {
			return
		}
		want := buf[FrameHeaderSize:]
		r, err := DecodeBody(want)
		if err != nil {
			return
		}
		framed := frame(nil, r)
		body, size, ok, err = NextFrame(framed)
		if !ok || err != nil || size != len(framed) || !bytes.Equal(body, want) {
			t.Fatalf("frame of a %d-byte body: ok=%v err=%v size=%d of %d", len(want), ok, err, size, len(framed))
		}
		p := int(cut) % len(framed)
		if _, _, ok, err := NextFrame(framed[:p]); ok || err != nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame: ok=%v err=%v", p, len(framed), ok, err)
		}
		i := int(flip) % len(framed)
		framed[i] ^= byte(flip>>8) | 1
		if body, _, ok, err := NextFrame(framed); ok {
			t.Fatalf("byte %d changed, frame still parses to a %d-byte body", i, len(body))
		} else if err != nil && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("byte %d changed: %v", i, err)
		}
	})
}
