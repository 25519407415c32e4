package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// logImage builds raw log bytes frame by frame, remembering where each
// record ends (the LSN of its last byte).
type logImage struct {
	raw  []byte
	ends []LSN
}

func (l *logImage) add(r *Record) {
	l.raw = frame(l.raw, r)
	l.ends = append(l.ends, LSN(len(l.raw)))
}

// commits appends commit records until the image holds at least off bytes.
func (l *logImage) commits(off int) {
	for len(l.raw) < off {
		l.add(&Record{Type: TypeCommit, TxnID: uint64(len(l.ends) + 1), PageID: NoPage, WallClock: int64(1000 + len(l.ends))})
	}
}

// TestScanStopsAtTornTailAfterReopen: a log file cut mid-record (a crash tore
// the final write) scans cleanly up to the last intact CRC boundary, which
// ScanBatches reports as the end of the intact prefix — wherever the records
// and the tear sit against the scan's read stretches. A CRC-valid body that
// does not decode is an error, not a tear.
func TestScanStopsAtTornTailAfterReopen(t *testing.T) {
	var plain logImage
	for len(plain.ends) < 10 {
		plain.commits(len(plain.raw) + 1)
	}

	// straddle has a record spanning the first stretch boundary.
	var straddle logImage
	straddle.add(&Record{Type: TypeCommit, TxnID: 1, PageID: NoPage, Extra: make([]byte, 5)})
	straddle.commits(scanStretch + 100)
	cross := 0
	for straddle.ends[cross] < scanStretch {
		cross++
	}
	if straddle.ends[cross] == scanStretch {
		t.Fatal("no record straddles the stretch boundary")
	}

	// aligned has a record ending exactly at the first stretch boundary.
	var aligned logImage
	aligned.commits(scanStretch - 200)
	for pad := 0; ; pad++ {
		if pad > scanStretch {
			t.Fatal("no padding ends a record exactly at the stretch boundary")
		}
		r := &Record{Type: TypeCommit, TxnID: 9, PageID: NoPage, Extra: make([]byte, pad)}
		if len(aligned.raw)+r.ApproxSize() == scanStretch {
			aligned.add(r)
			break
		}
	}
	aligned.commits(scanStretch + 100)

	// big holds a checkpoint-end record longer than one stretch.
	var big logImage
	big.commits(100)
	bigAt := len(big.ends)
	big.add(&Record{Type: TypeCheckpointEnd, PageID: NoPage, Extra: bytes.Repeat([]byte{7}, 3*scanStretch/2)})
	big.commits(len(big.raw) + 100)

	cases := []struct {
		name string
		img  *logImage
		keep int64 // log bytes the tear leaves
		want int   // intact records
	}{
		{"mid-record", &plain, int64(plain.ends[8]) + 5, 9},
		{"straddling a stretch, intact", &straddle, int64(len(straddle.raw)), len(straddle.ends)},
		{"straddling a stretch, torn past it", &straddle, int64(len(straddle.raw)) - 3, len(straddle.ends) - 1},
		{"torn at the stretch boundary", &straddle, scanStretch, cross},
		{"intact up to the stretch boundary", &aligned, scanStretch, countEnds(aligned.ends, scanStretch)},
		{"torn just past the stretch boundary", &aligned, scanStretch + 5, countEnds(aligned.ends, scanStretch)},
		{"checkpoint-end longer than a stretch", &big, int64(len(big.raw)), len(big.ends)},
		{"torn inside the long record", &big, int64(big.ends[bigAt]) - 10, bigAt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := reopenTorn(t, tc.img.raw, tc.keep)
			defer m.Close()
			var got []LSN
			err := m.Scan(1, func(rec *Record) (bool, error) {
				got = append(got, rec.LSN+LSN(rec.ApproxSize())-1)
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.img.ends[:tc.want]
			if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
				t.Fatalf("scan after tear saw %d records, want %d ending %v", len(got), len(want), want[len(want)-1])
			}
			end, err := m.ScanBatches(1, func(recs []*Record) (bool, error) { return true, nil })
			if err != nil || end != want[len(want)-1] {
				t.Fatalf("ScanBatches: intact prefix ends at %v (%v), want %v", end, err, want[len(want)-1])
			}
		})
	}

	// A frame whose body passes its CRC but does not decode is corruption.
	var bad logImage
	bad.commits(100)
	body := []byte{byte(TypeCommit)}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	bad.raw = append(append(bad.raw, hdr[:]...), body...)
	bad.commits(len(bad.raw) + 100)
	m := reopenTorn(t, bad.raw, int64(len(bad.raw)))
	defer m.Close()
	if err := m.Scan(1, func(*Record) (bool, error) { return true, nil }); err == nil {
		t.Fatal("Scan passed over a CRC-valid undecodable record")
	}
	if _, err := m.ScanBatches(1, func([]*Record) (bool, error) { return true, nil }); err == nil {
		t.Fatal("ScanBatches passed over a CRC-valid undecodable record")
	}
}

// countEnds is how many of ends are at or below lsn.
func countEnds(ends []LSN, lsn LSN) int {
	n := 0
	for n < len(ends) && ends[n] <= lsn {
		n++
	}
	return n
}

// reopenTorn writes raw as a log, tears it after keep bytes and reopens it.
func reopenTorn(t *testing.T, raw []byte, keep int64) *Manager {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	m.Close()
	tearLogAt(t, path, keep)
	m, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
