package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// testSyncPolicy lets CI run the whole crash-injection suite under a real
// fsync regime: ASOFDB_SYNC=fdatasync flips every store these tests open.
func testSyncPolicy(t *testing.T) SyncPolicy {
	t.Helper()
	p, err := ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	return p
}

// openSmall opens a store with the minimum segment capacity (4 KiB) so a
// modest record volume spans many segments.
func openSmall(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := OpenStore(dir, Config{SegmentBytes: 4 << 10, Sync: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// appendBulk appends n records with ~200-byte payloads (so segment
// boundaries land mid-record regularly) and flushes. Returns each record's
// (start LSN, end LSN).
func appendBulk(t *testing.T, m *Manager, n int) (starts, ends []LSN) {
	t.Helper()
	payload := bytes.Repeat([]byte{0xAB}, 200)
	for i := 0; i < n; i++ {
		r := &Record{Type: TypeInsert, TxnID: uint64(i + 1), PageID: uint32(i % 7), NewData: payload, WallClock: int64(i)}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, lsn)
		ends = append(ends, lsn+LSN(r.ApproxSize())-1)
	}
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}
	return starts, ends
}

// TestSegmentRotationScanAndRead: the log rotates across many fixed-size
// segments transparently — scans, random reads and reopen see one
// contiguous LSN space, and records that straddle a segment boundary decode
// exactly.
func TestSegmentRotationScanAndRead(t *testing.T) {
	dir := t.TempDir()
	m := openSmall(t, dir)
	starts, _ := appendBulk(t, m, 120) // ~26 KiB of log over 4 KiB segments

	segs := m.Segments()
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	for i, s := range segs {
		if sealed := i != len(segs)-1; s.Sealed != sealed {
			t.Fatalf("segment %d sealed=%v, want %v", i, s.Sealed, sealed)
		}
		if i > 0 && segs[i-1].End != s.Base {
			t.Fatalf("segment gap: %v then %v", segs[i-1], s)
		}
	}

	// A record that straddles a boundary reads back whole.
	boundary := int64(segs[1].Base - 1)
	straddler := -1
	for i := range starts {
		startOff := int64(starts[i] - 1)
		endOff := startOff + 200 // inside the payload for sure
		if startOff < boundary && endOff >= boundary {
			straddler = i
			break
		}
	}
	if straddler < 0 {
		t.Fatal("no record straddles the first boundary; lower the payload size")
	}
	rec, err := m.Read(starts[straddler])
	if err != nil {
		t.Fatalf("read straddling record: %v", err)
	}
	if rec.TxnID != uint64(straddler+1) || len(rec.NewData) != 200 {
		t.Fatalf("straddling record mismatch: %+v", rec)
	}

	count := 0
	if err := m.Scan(1, func(r *Record) (bool, error) { count++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if count != 120 {
		t.Fatalf("scan saw %d records, want 120", count)
	}
	next := m.NextLSN()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openSmall(t, dir)
	defer m2.Close()
	if m2.NextLSN() != next {
		t.Fatalf("NextLSN after reopen %v, want %v", m2.NextLSN(), next)
	}
	if rec, err := m2.Read(starts[straddler]); err != nil || rec.TxnID != uint64(straddler+1) {
		t.Fatalf("reopened straddling read: %v %+v", err, rec)
	}
}

// TestAppendRawAcrossRotation: replica-style raw ingestion of a batch far
// larger than a segment rotates mid-batch and produces a byte-identical,
// readable log.
func TestAppendRawAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	src := openSmall(t, filepath.Join(dir, "src"))
	defer src.Close()
	appendBulk(t, src, 100)

	raw := make([]byte, src.Size())
	if n, err := src.ReadDurable(raw, 0); err != nil || n != len(raw) {
		t.Fatalf("read durable: n=%d err=%v", n, err)
	}

	dst := openSmall(t, filepath.Join(dir, "dst"))
	defer dst.Close()
	if _, err := dst.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	if len(dst.Segments()) < 4 {
		t.Fatalf("raw ingest did not rotate: %d segments", len(dst.Segments()))
	}
	back := make([]byte, len(raw))
	if n, err := dst.ReadDurable(back, 0); err != nil || n != len(raw) {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(raw, back) {
		t.Fatal("raw round trip diverged")
	}
}

// TestTornTailInSealedSegment: a crash tears the log inside a record whose
// frame begins in a sealed segment and continues into the next — the
// newest segment file is lost entirely. Scan must stop at the last intact
// CRC boundary (inside the sealed segment), and Rewind must truncate the
// sealed segment back into the active role so appends resume at the exact
// boundary.
func TestTornTailInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	m := openSmall(t, dir)
	starts, ends := appendBulk(t, m, 120)
	segs := m.Segments()
	if len(segs) < 3 {
		t.Fatal("need several segments")
	}
	m.Close()

	// Find the record straddling the last segment boundary and keep only
	// the bytes up to a few past that boundary — its tail is torn away
	// with the final segment file(s).
	lastBase := int64(segs[len(segs)-1].Base - 1)
	straddler := -1
	for i := range starts {
		if int64(starts[i]-1) < lastBase && int64(ends[i]) > lastBase {
			straddler = i
		}
	}
	if straddler < 0 {
		t.Fatal("no record straddles the last segment boundary: the layout moved and the torn-tail-in-a-sealed-segment case no longer runs")
	}
	tearLogAt(t, dir, lastBase+2) // 2 bytes into the last segment

	m2 := openSmall(t, dir)
	defer m2.Close()
	validEnd := ends[straddler-1]
	var got []LSN
	if err := m2.Scan(1, func(r *Record) (bool, error) { got = append(got, r.LSN); return true, nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != straddler || got[len(got)-1] != starts[straddler-1] {
		t.Fatalf("scan after tear: %d records ending at %v, want %d ending at %v",
			len(got), got[len(got)-1], straddler, starts[straddler-1])
	}
	if err := m2.Rewind(validEnd); err != nil {
		t.Fatal(err)
	}
	if m2.NextLSN() != validEnd+1 {
		t.Fatalf("NextLSN after rewind %v, want %v", m2.NextLSN(), validEnd+1)
	}
	// The sealed segment is active again and accepts (and re-rotates) new
	// appends at the boundary.
	lsn, err := m2.AppendFlush(&Record{Type: TypeCommit, TxnID: 9999, PageID: NoPage, WallClock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != validEnd+1 {
		t.Fatalf("resumed append at %v, want %v", lsn, validEnd+1)
	}
	if rec, err := m2.Read(lsn); err != nil || rec.TxnID != 9999 {
		t.Fatalf("read resumed record: %v %+v", err, rec)
	}
}

// TestCrashMidRotation: a crash can leave the new segment file empty
// (header only) or headerless. Both reopen cleanly: the empty segment is
// the active one, the headerless leftover is discarded.
func TestCrashMidRotation(t *testing.T) {
	for _, mode := range []string{"header-only", "headerless"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			m := openSmall(t, dir)
			_, ends := appendBulk(t, m, 40)
			segs := m.Segments()
			last := segs[len(segs)-1]
			m.Close()

			// Simulate the torn rotation right after the current layout.
			path := filepath.Join(dir, segName(last.Seq+1))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "header-only" {
				// Rotation wrote the header but no data. Note the new
				// segment begins where the previous one was sealed (its
				// capacity boundary is irrelevant here: the previous
				// segment was mid-fill, so this models a rotation whose
				// data write never happened after a rewind-to-capacity;
				// the essential invariant is contiguity).
				if err := writeSegHeader(f, last.Seq+1, int64(last.End-1)); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := f.Write([]byte("partial")); err != nil {
					t.Fatal(err)
				}
			}
			f.Close()

			m2 := openSmall(t, dir)
			defer m2.Close()
			end := ends[len(ends)-1]
			if m2.NextLSN() != end+1 {
				t.Fatalf("NextLSN %v after %s rotation crash, want %v", m2.NextLSN(), mode, end+1)
			}
			lsn, err := m2.AppendFlush(&Record{Type: TypeCommit, TxnID: 7, PageID: NoPage, WallClock: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rec, err := m2.Read(lsn); err != nil || rec.TxnID != 7 {
				t.Fatalf("append after %s rotation crash: %v %+v", mode, err, rec)
			}
		})
	}
}

// TestRetentionDropsWholeSegments: truncation unlinks (or archives) whole
// sealed segments in O(segments dropped) and never rewrites live ones —
// asserted by comparing the surviving files byte for byte.
func TestRetentionDropsWholeSegments(t *testing.T) {
	for _, archived := range []bool{false, true} {
		name := "delete"
		if archived {
			name = "archive"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store := filepath.Join(dir, "wal")
			archiveDir := ""
			if archived {
				archiveDir = filepath.Join(dir, "archive")
			}
			m, err := OpenStore(store, Config{SegmentBytes: 4 << 10, ArchiveDir: archiveDir, Sync: testSyncPolicy(t)})
			if err != nil {
				t.Fatal(err)
			}
			starts, _ := appendBulk(t, m, 120)
			segs := m.Segments()
			if len(segs) < 4 {
				t.Fatal("need several segments")
			}

			// Cut at the first record boundary past the third segment's
			// base (retention always cuts at record boundaries — checkpoint
			// begin LSNs): segments 1 and 2 are wholly below it and must
			// go; the rest must be untouched.
			cut := starts[len(starts)-1]
			for _, s := range starts {
				if s >= segs[2].Base {
					cut = s
					break
				}
			}
			surviving := map[string][]byte{}
			for _, s := range segs[2:] {
				b, err := os.ReadFile(s.Path)
				if err != nil {
					t.Fatal(err)
				}
				surviving[s.Path] = b
			}
			if err := m.Truncate(cut); err != nil {
				t.Fatal(err)
			}

			left := m.Segments()
			if len(left) != len(segs)-2 {
				t.Fatalf("%d segments after truncate, want %d", len(left), len(segs)-2)
			}
			if left[0].Base != segs[2].Base {
				t.Fatalf("first live segment base %v, want %v", left[0].Base, segs[2].Base)
			}
			for path, before := range surviving {
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("live segment %s was rewritten by retention", path)
				}
			}
			if archived {
				arch, err := ListSegments(archiveDir)
				if err != nil {
					t.Fatal(err)
				}
				if len(arch) != 2 || arch[0].Base != segs[0].Base || arch[1].Base != segs[1].Base {
					t.Fatalf("archive holds %+v, want the two dropped segments", arch)
				}
			}

			if _, err := m.Read(starts[0]); err == nil {
				t.Fatal("read below the retention horizon should fail")
			}
			// The first record starting at or above the horizon is readable.
			for _, s := range starts {
				if s < cut {
					continue
				}
				if _, err := m.Read(s); err != nil {
					t.Fatalf("read at the horizon (%v): %v", s, err)
				}
				break
			}
			next := m.NextLSN()
			m.Close()

			// The physical floor survives restart: the store reopens with the
			// first retained segment as its truncation point.
			m2, err := OpenStore(store, Config{SegmentBytes: 4 << 10, ArchiveDir: archiveDir, Sync: testSyncPolicy(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if m2.NextLSN() != next {
				t.Fatalf("NextLSN after reopen %v, want %v", m2.NextLSN(), next)
			}
			// The logical cut — a record boundary — survives restart (the
			// trunc sidecar), NOT the mid-record segment base: a scan from
			// the beginning must resume exactly at the cut record and see
			// every retained record, not silently parse garbage and stop.
			if got := m2.TruncationPoint(); got != cut {
				t.Fatalf("truncation point after reopen %v, want the logical cut %v", got, cut)
			}
			var scanned []LSN
			if err := m2.Scan(1, func(r *Record) (bool, error) {
				scanned = append(scanned, r.LSN)
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, s := range starts {
				if s >= cut {
					want++
				}
			}
			if len(scanned) != want || scanned[0] != cut {
				t.Fatalf("post-reopen scan saw %d records starting %v, want %d starting %v",
					len(scanned), scanned[0], want, cut)
			}
		})
	}
}

// openArchived opens a 4 KiB-segment store under dir whose retention
// archives into dir/archive.
func openArchived(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := OpenStore(filepath.Join(dir, "wal"), Config{SegmentBytes: 4 << 10,
		ArchiveDir: filepath.Join(dir, "archive"), Sync: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readAllDurable reads the log's bytes [0, durable end) through ReadDurable.
func readAllDurable(t *testing.T, m *Manager) []byte {
	t.Helper()
	buf := make([]byte, m.FlushedLSN())
	if n, err := m.ReadDurable(buf, 0); err != nil || n != len(buf) {
		t.Fatalf("ReadDurable over the whole log: %d of %d bytes, %v", n, len(buf), err)
	}
	return buf
}

// TestArchiveServesDroppedHistory: once retention has archived segments,
// ReadDurable over [1, end) returns the bytes it returned before the cut,
// so the record straddling the archive/live boundary decodes whole — before
// and after a reopen, which loads the archive from its directory.
func TestArchiveServesDroppedHistory(t *testing.T) {
	dir := t.TempDir()
	m := openArchived(t, dir)
	starts, ends := appendBulk(t, m, 120)
	want := readAllDurable(t, m)
	segs := m.Segments()
	if len(segs) < 4 {
		t.Fatal("need several segments")
	}
	// Cut at the record after the one straddling the third segment's base:
	// segments 1 and 2 move to the archive, and the straddler begins in the
	// archive and ends in the live store.
	straddler := -1
	for i := range starts {
		if starts[i] < segs[2].Base && ends[i] >= segs[2].Base {
			straddler = i
		}
	}
	if straddler < 0 {
		t.Fatal("no record straddles the third segment's base; test layout broken")
	}
	if err := m.Truncate(starts[straddler+1]); err != nil {
		t.Fatal(err)
	}
	if floor := m.SegmentFloor(); floor != segs[2].Base {
		t.Fatalf("live floor %v after the cut, want %v", floor, segs[2].Base)
	}
	check := func(m *Manager) {
		t.Helper()
		if floor, err := m.Floor(); floor != 1 || err != nil {
			t.Fatalf("Floor() = %v, %v; want 1 with the archive holding the dropped segments", floor, err)
		}
		got := readAllDurable(t, m)
		if !bytes.Equal(got, want) {
			t.Fatal("ReadDurable over the archived and live log differs from the bytes read before the cut")
		}
		for i, pos := 0, 0; pos < len(got); i++ {
			_, size, ok, err := NextFrame(got[pos:])
			if !ok || err != nil || LSN(pos+1) != starts[i] {
				t.Fatalf("frame %d at %v: ok=%v err=%v, want a record at %v", i, pos+1, ok, err, starts[i])
			}
			pos += size
		}
	}
	check(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = openArchived(t, dir)
	defer m.Close()
	check(m)
}

// TestArchivePrunedOrDamaged: an archived file removed from the directory
// while the store is open raises Floor, and ReadDurable below it fails with
// ErrTruncated instead of serving zeros; a gap in the archive is an error
// naming it, with the floor at the live store's.
func TestArchivePrunedOrDamaged(t *testing.T) {
	dir := t.TempDir()
	m := openArchived(t, dir)
	starts, _ := appendBulk(t, m, 120)
	if err := m.Truncate(starts[len(starts)-1]); err != nil {
		t.Fatal(err)
	}
	arch, err := ListSegments(filepath.Join(dir, "archive"))
	if err != nil || len(arch) < 3 {
		t.Fatalf("archive holds %d segments (%v), want at least 3", len(arch), err)
	}
	if err := os.Remove(arch[0].Path); err != nil {
		t.Fatal(err)
	}
	if floor, err := m.Floor(); floor != arch[1].Base || err != nil {
		t.Fatalf("Floor() after pruning the first archived file = %v, %v; want %v", floor, err, arch[1].Base)
	}
	buf := make([]byte, 64)
	if _, err := m.ReadDurable(buf, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadDurable below the pruned archive: %v, want ErrTruncated", err)
	}
	if n, err := m.ReadDurable(buf, int64(arch[1].Base-1)); n != len(buf) || err != nil {
		t.Fatalf("ReadDurable at the archive's new floor: %d bytes, %v", n, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(arch[2].Path); err != nil {
		t.Fatal(err)
	}
	m = openArchived(t, dir)
	defer m.Close()
	floor, err := m.Floor()
	if err == nil || !strings.Contains(err.Error(), "gap") || !strings.Contains(err.Error(), "archive") {
		t.Fatalf("Floor() over an archive with a gap: %v, want an error naming the gap", err)
	}
	if floor != m.SegmentFloor() {
		t.Fatalf("Floor() over a damaged archive = %v, want the live floor %v", floor, m.SegmentFloor())
	}
	if _, err := m.ReadDurable(buf, int64(arch[1].Base-1)); !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("ReadDurable below a damaged archive: %v, want ErrTruncated naming the gap", err)
	}
}

// TestArchiveReadRacesRetention: ReadDurable loops beside Truncate calls
// that archive segments and an operator pruning the oldest archived files.
// Every read returns the log's bytes, never zeros, and fails only below the
// floor. Run it with -race.
func TestArchiveReadRacesRetention(t *testing.T) {
	dir := t.TempDir()
	m := openArchived(t, dir)
	defer m.Close()
	starts, _ := appendBulk(t, m, 400)
	want := readAllDurable(t, m)

	done := make(chan error, 1) // the retention goroutine's one result
	go func() {
		done <- func() error {
			for i := 10; i < len(starts); i += 10 {
				if err := m.Truncate(starts[i]); err != nil {
					return err
				}
				if i%50 != 0 {
					continue
				}
				arch, err := ListSegments(filepath.Join(dir, "archive"))
				if err != nil {
					return err
				}
				if len(arch) > 1 {
					if err := os.Remove(arch[0].Path); err != nil {
						return err
					}
				}
				if _, err := m.Floor(); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	buf := make([]byte, 3000)
	var bad, retErr error
	reads := 0
	for off, running := int64(0), true; running && bad == nil; reads++ {
		select {
		case retErr = <-done:
			running = false
		default:
		}
		off = (off + 997) % int64(len(want))
		n, err := m.ReadDurable(buf, off)
		if err != nil {
			if floor, _ := m.Floor(); !errors.Is(err, ErrTruncated) || off >= int64(floor-1) {
				bad = fmt.Errorf("ReadDurable at %d: %v (floor %v)", off, err, floor)
			}
		} else if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
			bad = fmt.Errorf("ReadDurable at %d returned bytes that differ from the log's", off)
		}
		if bad != nil && running {
			retErr = <-done // the store stays open until retention stops
		}
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if retErr != nil {
		t.Fatal(retErr)
	}
	if reads < 2 {
		t.Fatal("no read ran beside retention")
	}
}

// TestScanRacingRetentionFails: a scan whose next stretch a retention cut
// dropped fails with an error wrapping ErrTruncated. It does not end there
// with a nil error, as if the log ended at the cut.
func TestScanRacingRetentionFails(t *testing.T) {
	for _, name := range []string{"Scan", "ScanBatches"} {
		t.Run(name, func(t *testing.T) {
			m := openSmall(t, t.TempDir())
			defer m.Close()
			starts, _ := appendBulk(t, m, 2000)
			seen, cut := 0, false
			visit := func(n int) error {
				seen += n
				if cut {
					return nil
				}
				cut = true
				return m.Truncate(starts[1500])
			}
			var err error
			if name == "Scan" {
				err = m.Scan(1, func(*Record) (bool, error) { return true, visit(1) })
			} else {
				_, err = m.ScanBatches(1, func(recs []*Record) (bool, error) { return true, visit(len(recs)) })
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut by retention after its first stretch: %d of %d records, err=%v; want an error wrapping ErrTruncated",
					name, seen, len(starts), err)
			}
		})
	}
}

// TestRecordReadsRaceRetention: ChainReader.Read and Manager.Read loop over
// LSNs beside Truncate calls, with and without an archive. A read returns
// the record appended at its LSN or fails with ErrTruncated, and a read at
// or above the truncation point as it stands after the read never fails.
// Then a read at a truncation point that lies inside a block leaves no block
// that starts below the live floor in the shared cache. Run it with -race.
func TestRecordReadsRaceRetention(t *testing.T) {
	for _, archived := range []bool{false, true} {
		t.Run(fmt.Sprintf("archived=%v", archived), func(t *testing.T) {
			dir := t.TempDir()
			var m *Manager
			if archived {
				m = openArchived(t, dir)
			} else {
				m = openSmall(t, dir)
			}
			defer m.Close()
			starts, _ := appendBulk(t, m, 400)

			// First a cut lands between a load's clamp and its store read,
			// on purpose: the manager's lock, which the read takes before it
			// asks the store, holds the read back once its block miss is
			// counted, while the cut drops the segments the clamp let in, as
			// Truncate would, and moves the truncation point.
			k := sort.Search(len(starts), func(i int) bool { return starts[i] > 5*readBlockSize/4 })
			misses := m.cache.misses.Load()
			m.mu.Lock()
			res := make(chan error, 1)
			go func() {
				rec, err := m.Read(starts[k])
				if err == nil && rec.TxnID != uint64(k+1) {
					err = fmt.Errorf("txn %d, want %d", rec.TxnID, k+1)
				}
				res <- err
			}()
			for m.cache.misses.Load() == misses && len(res) == 0 {
				runtime.Gosched()
			}
			_, _, dropErr := m.store.dropBefore(int64(starts[k] - 1))
			m.trunc.Store(uint64(starts[k]))
			m.mu.Unlock()
			if err := <-res; dropErr != nil || err != nil {
				t.Fatalf("read at %v as a cut there dropped its block's front: %v (drop: %v)", starts[k], err, dropErr)
			}

			done := make(chan error, 1) // the retention goroutine's one result
			go func() {
				done <- func() error {
					for i := k + 5; i < 390; i += 5 {
						if err := m.Truncate(starts[i]); err != nil {
							return err
						}
					}
					return nil
				}()
			}()
			cr := m.ChainReader()
			defer cr.Close()
			var bad, retErr error
			reads := 0
			for running := true; running && bad == nil; reads++ {
				select {
				case retErr = <-done:
					running = false
				default:
				}
				// Read near the truncation point, where a cut races the read.
				j := sort.Search(len(starts), func(i int) bool { return starts[i] >= m.TruncationPoint() })
				j = min(j+reads%24, len(starts)-1)
				read := m.Read
				if reads%2 == 1 {
					read = cr.Read
				}
				rec, err := read(starts[j])
				tp := m.TruncationPoint()
				switch {
				case err == nil && rec.TxnID != uint64(j+1):
					bad = fmt.Errorf("read at %v returned txn %d, want %d", starts[j], rec.TxnID, j+1)
				case err != nil && (!errors.Is(err, ErrTruncated) || starts[j] >= tp):
					bad = fmt.Errorf("read at %v (truncation point %v): %v", starts[j], tp, err)
				}
				if bad != nil && running {
					retErr = <-done // the store stays open until retention stops
				}
			}
			if bad != nil {
				t.Fatal(bad)
			}
			if retErr != nil {
				t.Fatal(retErr)
			}
			if reads < 2 {
				t.Fatal("no read ran beside retention")
			}

			// Cut where the live floor lies inside a block.
			cut := 390
			for ; cut < len(starts); cut++ {
				if err := m.Truncate(starts[cut]); err != nil {
					t.Fatal(err)
				}
				if (m.SegmentFloor()-1)%readBlockSize != 0 {
					break
				}
			}
			if cut == len(starts) {
				t.Fatal("no cut left the live floor inside a block")
			}
			floor := int64(m.SegmentFloor() - 1)
			m.InvalidateCache()
			fresh := m.ChainReader()
			defer fresh.Close()
			for _, read := range []func(LSN) (*Record, error){m.Read, fresh.Read} {
				if rec, err := read(starts[cut]); err != nil || rec.TxnID != uint64(cut+1) {
					t.Fatalf("read at the truncation point %v: %v", starts[cut], err)
				}
			}
			for idx := int64(0); idx*readBlockSize < floor; idx++ {
				if m.cache.peek(idx) != nil {
					t.Fatalf("block %d starts below the live floor at offset %d and is in the shared cache", idx, floor)
				}
			}
		})
	}
}

// TestReseedBaseStore: a store created with BaseLSN starts its LSN space
// mid-stream — the reseeded-replica layout — and accepts raw appends there.
func TestReseedBaseStore(t *testing.T) {
	dir := t.TempDir()
	src := openSmall(t, filepath.Join(dir, "src"))
	defer src.Close()
	appendBulk(t, src, 50)
	base := src.NextLSN()
	raw := frame(nil, &Record{Type: TypeCommit, TxnID: 123, PageID: NoPage, WallClock: 5})

	m, err := OpenStore(filepath.Join(dir, "re"), Config{SegmentBytes: 4 << 10, BaseLSN: base})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NextLSN() != base {
		t.Fatalf("NextLSN %v, want %v", m.NextLSN(), base)
	}
	if m.TruncationPoint() != base {
		t.Fatalf("TruncationPoint %v, want %v", m.TruncationPoint(), base)
	}
	if _, err := m.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Read(base)
	if err != nil || rec.TxnID != 123 {
		t.Fatalf("read at base: %v %+v", err, rec)
	}
}

// FuzzSegmentMeta: the two headers a store reads before any record — each
// segment file's header (readSegHeader) and trunc.meta, the persisted
// truncation point (parseTruncPoint). Neither parser panics, with the CRCs
// as found or stamped to match the mutated bytes, and what one accepts
// re-encodes to the bytes it read: the segment header's first 28 bytes (the
// last four are padding no reader looks at), all 20 of trunc.meta. Seeds
// under testdata/fuzz are two segment headers (sequence 1 at offset 0,
// sequence 3 at 16 MiB) and a trunc.meta, as segHeader and
// encodeTruncPoint render them.
func FuzzSegmentMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		check := func(b []byte) {
			if seq, start, ok := readSegHeader(bytes.NewReader(b)); ok {
				if hdr := segHeader(seq, start); !bytes.Equal(hdr[:28], b[:28]) {
					t.Fatalf("segment header %x (seq %d, start %d) re-encodes to %x", b[:28], seq, start, hdr[:28])
				}
			}
			if lsn, ok := parseTruncPoint(b); ok && !bytes.Equal(encodeTruncPoint(lsn), b) {
				t.Fatalf("trunc.meta %x (lsn %d) re-encodes to %x", b, lsn, encodeTruncPoint(lsn))
			}
		}
		check(buf)
		stamped := append([]byte(nil), buf...)
		if len(stamped) >= 28 {
			binary.LittleEndian.PutUint32(stamped[24:], crc32.ChecksumIEEE(stamped[:24]))
		}
		if len(stamped) == 20 {
			binary.LittleEndian.PutUint32(stamped[16:], crc32.ChecksumIEEE(stamped[:16]))
		}
		check(stamped)
	})
}
