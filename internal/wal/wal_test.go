package wal

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/storage/media"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	m, err := Open(filepath.Join(t.TempDir(), "test.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestRewindDropsTimeSamples: rewinding the log (torn-tail recovery, or a
// replica resynchronizing to a re-shipped boundary) must drop time→LSN
// samples past the cut — the rewound range is rewritten, so a surviving
// sample would map a wall-clock time to an LSN that no longer holds a
// commit record.
func TestRewindDropsTimeSamples(t *testing.T) {
	m := testManager(t)
	// Three sample intervals of commit records; Append takes the samples.
	for m.NextLSN() < LSN(3*timeSampleEvery) {
		_, err := m.Append(&Record{
			Type: TypeCommit, TxnID: 1, PageID: NoPage,
			WallClock: int64(m.NextLSN()),
			OldData:   make([]byte, 512),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}
	before := m.TimeIndexLen()
	var lastSampleLSN LSN
	if s, ok := m.TimeFloor(1 << 62); ok {
		lastSampleLSN = s.LSN
	}
	if before < 3 || lastSampleLSN == NilLSN {
		t.Fatalf("sampling never engaged: %d samples, last at %v", before, lastSampleLSN)
	}

	// Rewind below the newest sample: it (and only it and its successors)
	// must vanish, and TimeFloor must never answer with a dropped LSN.
	cut := lastSampleLSN - 1
	if err := m.Rewind(cut); err != nil {
		t.Fatal(err)
	}
	if got := m.TimeIndexLen(); got >= before {
		t.Fatalf("rewind kept %d of %d samples", got, before)
	}
	if s, ok := m.TimeFloor(1 << 62); ok && s.LSN > cut {
		t.Fatalf("TimeFloor serves sample at %v past the rewind cut %v", s.LSN, cut)
	}

	// Re-observing the regrown (byte-identical on a replica) commits
	// re-samples cleanly instead of colliding with stale index state.
	m.ObserveCommit(int64(cut)+1, cut+1+timeSampleEvery)
	if s, ok := m.TimeFloor(1 << 62); !ok || s.LSN != cut+1+timeSampleEvery {
		t.Fatalf("re-observed commit not sampled: %+v ok=%v", s, ok)
	}
}

func TestRecordMarshalRoundTrip(t *testing.T) {
	r := &Record{
		Type:         TypeUpdate,
		TxnID:        42,
		PrevLSN:      100,
		PageID:       7,
		ObjectID:     3,
		PrevPageLSN:  90,
		UndoNextLSN:  80,
		PrevImageLSN: 70,
		CLRType:      TypeInsert,
		Slot:         5,
		WallClock:    1234567890,
		OldData:      []byte("old"),
		NewData:      []byte("new"),
		Extra:        []byte{1, 2},
	}
	body := r.marshal(nil)
	if len(body) != r.marshaledSize() {
		t.Fatalf("marshaled %d bytes, size() says %d", len(body), r.marshaledSize())
	}
	got, err := unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	got.LSN = r.LSN
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(txn uint64, prev, ppl, unl, pil uint64, pid, oid uint32, slot uint16, wc int64, old, new_, extra []byte) bool {
		r := &Record{
			Type: TypeDelete, CLRType: TypeUpdate,
			TxnID: txn, PrevLSN: LSN(prev), PageID: pid, ObjectID: oid,
			PrevPageLSN: LSN(ppl), UndoNextLSN: LSN(unl), PrevImageLSN: LSN(pil),
			Slot: slot, WallClock: wc, OldData: old, NewData: new_, Extra: extra,
		}
		got, err := unmarshal(r.marshal(nil))
		if err != nil {
			return false
		}
		// normalize empty vs nil slices
		eq := func(a, b []byte) bool { return bytes.Equal(a, b) }
		return got.TxnID == r.TxnID && got.PrevLSN == r.PrevLSN &&
			got.PageID == r.PageID && got.ObjectID == r.ObjectID &&
			got.PrevPageLSN == r.PrevPageLSN && got.UndoNextLSN == r.UndoNextLSN &&
			got.PrevImageLSN == r.PrevImageLSN && got.Slot == r.Slot &&
			got.WallClock == r.WallClock && eq(got.OldData, r.OldData) &&
			eq(got.NewData, r.NewData) && eq(got.Extra, r.Extra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := unmarshal(nil); err == nil {
		t.Error("nil body should fail")
	}
	if _, err := unmarshal(make([]byte, 10)); err == nil {
		t.Error("short body should fail")
	}
	// Valid header but field length overrunning the body.
	r := &Record{Type: TypeInsert, NewData: []byte("abc")}
	body := r.marshal(nil)
	body = body[:len(body)-2]
	if _, err := unmarshal(body); err == nil {
		t.Error("truncated field should fail")
	}
	// Bytes after Extra, as a partitioned log's commit record carried them
	// (csn, dependency count, one position per stream): nothing this build
	// writes, and not to be dropped silently.
	commit := (&Record{Type: TypeCommit, TxnID: 7, PrevLSN: 90, PageID: NoPage, WallClock: 1}).marshal(nil)
	if _, err := unmarshal(commit); err != nil {
		t.Fatal(err)
	}
	ext := binary.AppendUvarint(binary.AppendUvarint(commit, 12), 4) // csn 12, 4 deps
	for _, dep := range []uint64{0, 4096, 0, 77} {
		ext = binary.AppendUvarint(ext, dep)
	}
	if _, err := unmarshal(ext); err == nil {
		t.Error("bytes trailing the last field should fail")
	}
}

// TestUnmarshalRefusesUnknownFlags: FlagNTA is the only record flag; a body
// with any other flag bit set is refused, not decoded into a record that
// marshals the bit back out.
func TestUnmarshalRefusesUnknownFlags(t *testing.T) {
	body := (&Record{Type: TypeInsert, TxnID: 3, PageID: 9, Flags: FlagNTA, NewData: []byte("row")}).marshal(nil)
	if _, err := unmarshal(body); err != nil {
		t.Fatal(err)
	}
	for bit := 1; bit < 8; bit++ {
		bad := slices.Clone(body)
		bad[2] |= 1 << bit
		if r, err := unmarshal(bad); err == nil {
			t.Fatalf("flags %#x decoded to a record with flags %#x", bad[2], r.Flags)
		}
	}
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	m := testManager(t)
	var last LSN
	for i := 0; i < 100; i++ {
		lsn, err := m.Append(&Record{Type: TypeBegin, TxnID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= last {
			t.Fatalf("LSN %v not > previous %v", lsn, last)
		}
		last = lsn
	}
	if m.NextLSN() <= last {
		t.Fatalf("NextLSN %v not beyond last %v", m.NextLSN(), last)
	}
}

func TestReadBackUnflushedAndFlushed(t *testing.T) {
	m := testManager(t)
	lsn1, _ := m.Append(&Record{Type: TypeBegin, TxnID: 1})
	lsn2, _ := m.Append(&Record{Type: TypeInsert, TxnID: 1, PageID: 9, Slot: 3, NewData: []byte("row")})

	// Read from the in-memory tail.
	r, err := m.Read(lsn2)
	if err != nil {
		t.Fatalf("read unflushed: %v", err)
	}
	if r.Type != TypeInsert || r.PageID != 9 || string(r.NewData) != "row" {
		t.Fatalf("unflushed read mismatch: %+v", r)
	}

	if err := m.Flush(lsn2); err != nil {
		t.Fatal(err)
	}
	if m.FlushedLSN() < lsn2 {
		t.Fatalf("FlushedLSN %v < %v", m.FlushedLSN(), lsn2)
	}
	r, err = m.Read(lsn1)
	if err != nil {
		t.Fatalf("read flushed: %v", err)
	}
	if r.Type != TypeBegin || r.TxnID != 1 {
		t.Fatalf("flushed read mismatch: %+v", r)
	}
}

func TestReadSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := m.Append(&Record{Type: TypeCommit, TxnID: 5, WallClock: 999})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	r, err := m2.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != TypeCommit || r.TxnID != 5 || r.WallClock != 999 {
		t.Fatalf("reopened read mismatch: %+v", r)
	}
	if m2.NextLSN() != m.NextLSN() {
		t.Fatalf("NextLSN after reopen %v, want %v", m2.NextLSN(), m.NextLSN())
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	m := testManager(t)
	var want []LSN
	for i := 0; i < 20; i++ {
		lsn, _ := m.Append(&Record{Type: TypeBegin, TxnID: uint64(i)})
		want = append(want, lsn)
	}
	m.Flush(want[len(want)-1])

	var got []LSN
	err := m.Scan(1, func(r *Record) (bool, error) {
		got = append(got, r.LSN)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan order mismatch: got %v want %v", got, want)
	}

	// Scan from the middle.
	got = got[:0]
	if err := m.Scan(want[10], func(r *Record) (bool, error) {
		got = append(got, r.LSN)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[10:]) {
		t.Fatalf("mid scan mismatch: got %v want %v", got, want[10:])
	}

	// Early stop.
	n := 0
	if err := m.Scan(1, func(r *Record) (bool, error) {
		n++
		return n < 5, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestScanIncludesUnflushedTail(t *testing.T) {
	m := testManager(t)
	lsn, _ := m.Append(&Record{Type: TypeBegin, TxnID: 77})
	seen := false
	if err := m.Scan(1, func(r *Record) (bool, error) {
		if r.LSN == lsn && r.TxnID == 77 {
			seen = true
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("scan did not reach unflushed tail record")
	}
}

func TestTruncationBlocksOldReads(t *testing.T) {
	m := testManager(t)
	lsn1, _ := m.Append(&Record{Type: TypeBegin, TxnID: 1})
	lsn2, _ := m.Append(&Record{Type: TypeBegin, TxnID: 2})
	m.Flush(lsn2)
	if err := m.Truncate(lsn2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(lsn1); err == nil {
		t.Fatal("read below truncation point should fail")
	}
	if _, err := m.Read(lsn2); err != nil {
		t.Fatalf("read at truncation point failed: %v", err)
	}
	if m.TruncationPoint() != lsn2 {
		t.Fatalf("TruncationPoint = %v, want %v", m.TruncationPoint(), lsn2)
	}
	// Scans silently start at the truncation point.
	var first LSN
	m.Scan(1, func(r *Record) (bool, error) { first = r.LSN; return false, nil })
	if first != lsn2 {
		t.Fatalf("scan started at %v, want %v", first, lsn2)
	}
}

func TestCheckpointPayloadRoundTrip(t *testing.T) {
	d := CheckpointData{
		BeginLSN: 123,
		PrevEnd:  45,
		ATT: []ATTEntry{
			{TxnID: 1, LastLSN: 200, BeginLSN: 150},
			{TxnID: 9, LastLSN: 300, BeginLSN: 40},
		},
		TLI: 1,
	}
	got, err := DecodeCheckpoint(EncodeCheckpoint(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("checkpoint round trip: got %+v want %+v", got, d)
	}
	if _, err := DecodeCheckpoint([]byte{1, 2, 3}); err == nil {
		t.Error("short checkpoint payload should fail")
	}
	// Empty ATT.
	d2 := CheckpointData{BeginLSN: 1, TLI: 1}
	got2, err := DecodeCheckpoint(EncodeCheckpoint(d2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.BeginLSN != 1 || len(got2.ATT) != 0 {
		t.Fatalf("empty ATT round trip: %+v", got2)
	}
	// No timeline: a payload that ends after its samples, or whose
	// timeline section names timeline 0, is refused.
	if _, err := DecodeCheckpoint(EncodeCheckpoint(d2)[:32]); err == nil {
		t.Error("a payload without a timeline section should fail")
	}
	if _, err := DecodeCheckpoint(EncodeCheckpoint(CheckpointData{BeginLSN: 1})); err == nil {
		t.Error("a timeline section for timeline 0 should fail")
	}
	// Bytes past the timeline trailer, as a partitioned log's checkpoint
	// carried them (stream count, one begin per stream, discarded count).
	d.TLI, d.History = 2, TimelineHistory{{TLI: 1, End: 100}}
	payload := EncodeCheckpoint(d)
	if got, err := DecodeCheckpoint(payload); err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("timeline round trip: got %+v, %v", got, err)
	}
	for _, v := range []uint64{4, 120, 4096, 8192, 64, 0} {
		payload = binary.LittleEndian.AppendUint64(payload, v)
	}
	if _, err := DecodeCheckpoint(payload); err == nil {
		t.Error("bytes trailing the timeline section should fail")
	}
	// A fork count whose byte size wraps around must not pass the size check.
	wrap := EncodeCheckpoint(CheckpointData{BeginLSN: 1, TLI: 2})
	binary.LittleEndian.PutUint64(wrap[len(wrap)-8:], 1<<60)
	if _, err := DecodeCheckpoint(wrap); err == nil {
		t.Error("an impossible fork count should fail")
	}
}

// TestCheckpointDPTSection: a fuzzy checkpoint's dirty-page table trails the
// timeline section and round-trips; a payload without one decodes with an
// empty table; a malformed table is an error, never a panic or a silent
// slice.
func TestCheckpointDPTSection(t *testing.T) {
	d := CheckpointData{
		BeginLSN: 5000,
		PrevEnd:  4000,
		ATT:      []ATTEntry{{TxnID: 3, LastLSN: 4900, BeginLSN: 4100}},
		TLI:      1,
		DPT:      []DirtyPage{{PageID: 7, RecLSN: 3100}, {PageID: 9, RecLSN: 4999}},
	}
	payload := EncodeCheckpoint(d)
	got, err := DecodeCheckpoint(payload)
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("DPT round trip: got %+v, %v", got, err)
	}
	if got.RedoStart() != 3100 {
		t.Fatalf("RedoStart = %v, want 3100", got.RedoStart())
	}
	flushAll := d
	flushAll.DPT = nil
	if got, err := DecodeCheckpoint(EncodeCheckpoint(flushAll)); err != nil || got.DPT != nil || got.RedoStart() != 5000 {
		t.Fatalf("no DPT: got %+v (redo start %v), %v", got.DPT, got.RedoStart(), err)
	}

	base := len(EncodeCheckpoint(flushAll)) // offset of the DPT section
	bad := map[string][]byte{
		"truncated mid-entry": payload[:len(payload)-5],
		"truncated count":     payload[:base+3],
		"trailing bytes":      binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), 0),
	}
	withEntry := func(i int, field int, v uint64) []byte {
		b := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(b[base+8+16*i+8*field:], v)
		return b
	}
	bad["recLSN 0"] = withEntry(0, 1, 0)
	bad["recLSN at begin"] = withEntry(1, 1, 5000)
	bad["recLSN above begin"] = withEntry(1, 1, 9000)
	bad["page id past 32 bits"] = withEntry(0, 0, 1<<32)
	for name, n := range map[string]uint64{"count 0": 0, "count past the bytes": 3, "count that wraps": 1 << 60} {
		b := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(b[base:], n)
		bad[name] = b
	}
	for name, b := range bad {
		if got, err := DecodeCheckpoint(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, got)
		}
	}
}

// FuzzDecodeCheckpoint: the checkpoint-end payload decoder — the analysis
// seed and redo start recovery, split resolution, replica apply and
// backup.Full all read — never panics, and what it accepts encodes to
// exactly the bytes it read, dirty-page table included. Seeds are the
// checkpoint-end bodies of internal/asof/testdata/wholerow-log, one payload
// with a timeline section, one whose section names timeline 0, one with a
// dirty-page table and one cut off in the middle of it.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := DecodeCheckpoint(payload)
		if err != nil {
			return
		}
		if again := EncodeCheckpoint(d); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %+v from %x\nre-encodes to %x", d, payload, again)
		}
	})
}

func TestUndoReadsCountedOnCacheMiss(t *testing.T) {
	dev := media.New(media.SSD(), nil)
	m, err := Open(filepath.Join(t.TempDir(), "c.wal"), dev)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var lsns []LSN
	payload := make([]byte, 2048)
	for i := 0; i < 200; i++ { // ~400 KiB, spanning multiple 32K blocks
		lsn, _ := m.Append(&Record{Type: TypeInsert, PageID: 1, NewData: payload})
		lsns = append(lsns, lsn)
	}
	m.Flush(lsns[len(lsns)-1])
	m.InvalidateCache()
	m.UndoReads.Store(0)

	if _, err := m.Read(lsns[0]); err != nil {
		t.Fatal(err)
	}
	miss1 := m.UndoReads.Load()
	if miss1 == 0 {
		t.Fatal("first read should miss the cache")
	}
	if _, err := m.Read(lsns[0]); err != nil {
		t.Fatal(err)
	}
	if m.UndoReads.Load() != miss1 {
		t.Fatalf("second read of same record should hit cache: %d -> %d", miss1, m.UndoReads.Load())
	}
	if dev.Stats.RandReads.Load() == 0 {
		t.Fatal("device should have been charged random reads")
	}
}

func TestScanStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	m, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := m.Append(&Record{Type: TypeBegin, TxnID: 1})
	l2, _ := m.Append(&Record{Type: TypeBegin, TxnID: 2})
	m.Flush(l2)
	m.Close()

	// Corrupt the second record's body.
	mm, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if err := mm.store.writeAt([]byte{0xFF, 0xFF, 0xFF}, int64(l2-1)+frameHeader+3); err != nil {
		t.Fatal(err)
	}
	var seen []LSN
	if err := mm.Scan(1, func(r *Record) (bool, error) {
		seen = append(seen, r.LSN)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != l1 {
		t.Fatalf("scan past torn tail: %v", seen)
	}
}
