package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// buildChainLog appends a mix of record shapes (small slot ops, CLRs, and
// full-page-image-sized payloads that cross block boundaries) and returns
// their LSNs.
func buildChainLog(t *testing.T, m *Manager, n int) []LSN {
	t.Helper()
	lsns := make([]LSN, 0, n)
	prev := NilLSN
	big := bytes.Repeat([]byte{0xAB}, 8192)
	for i := 0; i < n; i++ {
		r := &Record{
			Type:        TypeUpdate,
			TxnID:       uint64(i%7) + 1,
			PageID:      uint32(i % 13),
			ObjectID:    7,
			PrevLSN:     prev,
			PrevPageLSN: prev,
			Slot:        uint16(i),
			WallClock:   time.Now().UnixNano(),
			OldData:     []byte("old-value-abcdefgh"),
			NewData:     []byte("new-value-abcdefgh"),
		}
		switch i % 11 {
		case 3:
			r.Type = TypeCLR
			r.CLRType = TypeInsert
			r.UndoNextLSN = prev
		case 5:
			r.Type = TypeImage
			r.NewData = big
			r.PrevImageLSN = prev
		}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		prev = lsn
	}
	return lsns
}

// TestChainReaderMatchesManagerRead walks the log backwards through a
// ChainReader and checks every field against Manager.Read.
func TestChainReaderMatchesManagerRead(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsns := buildChainLog(t, m, 500)
	// Half flushed, half still in the in-memory tail: the reader must serve
	// both.
	if err := m.Flush(lsns[len(lsns)/2]); err != nil {
		t.Fatal(err)
	}

	rdr := m.ChainReader()
	defer rdr.Close()
	for i := len(lsns) - 1; i >= 0; i-- {
		want, err := m.Read(lsns[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := rdr.Read(lsns[i])
		if err != nil {
			t.Fatalf("chain read %v: %v", lsns[i], err)
		}
		if got.LSN != want.LSN || got.Type != want.Type || got.TxnID != want.TxnID ||
			got.PrevLSN != want.PrevLSN || got.PageID != want.PageID ||
			got.ObjectID != want.ObjectID || got.PrevPageLSN != want.PrevPageLSN ||
			got.UndoNextLSN != want.UndoNextLSN || got.PrevImageLSN != want.PrevImageLSN ||
			got.CLRType != want.CLRType || got.Flags != want.Flags ||
			got.Slot != want.Slot || got.WallClock != want.WallClock {
			t.Fatalf("record %v mismatch:\n got %+v\nwant %+v", lsns[i], got, want)
		}
		if !bytes.Equal(got.OldData, want.OldData) || !bytes.Equal(got.NewData, want.NewData) ||
			!bytes.Equal(got.Extra, want.Extra) {
			t.Fatalf("record %v payload mismatch", lsns[i])
		}
	}
}

// TestChainReaderSeesUnflushedTail reads a record that only exists in the
// append buffer, then again after more appends grow the log past the pinned
// partial block (exercising the stale-short refresh path).
func TestChainReaderSeesUnflushedTail(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	first, err := m.Append(&Record{Type: TypeInsert, PageID: 1, NewData: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	if rec, err := rdr.Read(first); err != nil || rec.Type != TypeInsert {
		t.Fatalf("tail read: %v %v", rec, err)
	}
	// Append more; the previously pinned partial block is now stale-short
	// for the new record's offset.
	var last LSN
	for i := 0; i < 50; i++ {
		last, err = m.Append(&Record{Type: TypeUpdate, PageID: 1, Slot: uint16(i),
			OldData: []byte("old"), NewData: []byte("new")})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, err := rdr.Read(last)
	if err != nil {
		t.Fatalf("read after growth: %v", err)
	}
	if rec.Slot != 49 {
		t.Fatalf("got slot %d, want 49", rec.Slot)
	}
}

// TestChainReaderTruncation verifies the truncation boundary is honored
// without the manager lock.
func TestChainReaderTruncation(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsns := buildChainLog(t, m, 10)
	if err := m.Truncate(lsns[5]); err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	if _, err := rdr.Read(lsns[2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below truncation: %v", err)
	}
	if _, err := rdr.Read(lsns[7]); err != nil {
		t.Fatalf("read above truncation: %v", err)
	}
}

// TestChainReaderZeroAllocSteadyState asserts the core acceptance
// criterion: once the walked blocks are pinned, a chain hop allocates
// nothing.
func TestChainReaderZeroAllocSteadyState(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Small records only: all within a handful of blocks.
	prev := NilLSN
	var lsns []LSN
	for i := 0; i < 200; i++ {
		lsn, err := m.Append(&Record{Type: TypeUpdate, PageID: 3, PrevPageLSN: prev,
			Slot: uint16(i), OldData: []byte("old-payload-123"), NewData: []byte("new-payload-123")})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		prev = lsn
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	// Warm the pinned set.
	for i := len(lsns) - 1; i >= 0; i-- {
		if _, err := rdr.Read(lsns[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := len(lsns)
	allocs := testing.AllocsPerRun(len(lsns), func() {
		i--
		if i < 0 {
			i = len(lsns) - 1
		}
		if _, err := rdr.Read(lsns[i]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state chain hop allocates: %.2f allocs/record", allocs)
	}
}

// TestChainReaderCloseDropsBlockRefs checks that a reader parked in the pool
// holds no log block alive: not through its pinned spans, and not through
// the scratch record, whose byte fields alias one.
func TestChainReaderCloseDropsBlockRefs(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsn, err := m.Append(&Record{Type: TypeUpdate, PageID: 3, OldData: []byte("old"), NewData: []byte("new"), Extra: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	rec, err := rdr.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.OldData) != "old" || string(rec.NewData) != "new" || string(rec.Extra) != "x" {
		t.Fatalf("read %+v", rec)
	}
	rdr.Close()
	if rec.OldData != nil || rec.NewData != nil || rec.Extra != nil {
		t.Fatalf("closed reader still references block memory: %+v", rec)
	}
	for _, b := range rdr.blocks {
		if b.data != nil {
			t.Fatal("closed reader still pins a block")
		}
	}
}

// TestTimeIndexSampling verifies the sparse index samples commits, resolves
// floors, and round-trips through checkpoint encode/decode.
func TestTimeIndexSampling(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	base := time.Date(2012, 3, 22, 12, 0, 0, 0, time.UTC).UnixNano()
	pad := bytes.Repeat([]byte{0x11}, 4096)
	var commits []TimeSample
	for i := 0; i < 100; i++ {
		// Filler so commits land in different sample windows.
		for j := 0; j < 8; j++ {
			if _, err := m.Append(&Record{Type: TypeUpdate, PageID: 1, OldData: pad, NewData: pad}); err != nil {
				t.Fatal(err)
			}
		}
		wc := base + int64(i)*int64(time.Second)
		lsn, err := m.Append(&Record{Type: TypeCommit, TxnID: uint64(i + 1), PageID: NoPage, WallClock: wc})
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, TimeSample{WallClock: wc, LSN: lsn})
	}
	if n := m.TimeIndexLen(); n == 0 {
		t.Fatal("no samples taken")
	}

	// A floor query between two commits must land on a sampled commit at or
	// before the target, never after.
	target := base + 50*int64(time.Second) + int64(500*time.Millisecond)
	s, ok := m.TimeFloor(target)
	if !ok {
		t.Fatal("no floor found")
	}
	if s.WallClock > target {
		t.Fatalf("floor %d past target %d", s.WallClock, target)
	}

	// Round-trip through the checkpoint payload.
	all := m.TimeSamplesSince(NilLSN)
	data := CheckpointData{BeginLSN: 1, ATT: []ATTEntry{{TxnID: 9, LastLSN: 7, BeginLSN: 3}}, Times: all, TLI: 1}
	payload := EncodeCheckpoint(data)
	dec, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Times) != len(all) || len(dec.ATT) != 1 {
		t.Fatalf("round trip lost entries: %d/%d samples", len(dec.Times), len(all))
	}
	for i := range all {
		if dec.Times[i] != all[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}

	// A payload that ends after its ATT, or after its samples, is refused:
	// every checkpoint carries a time index and a timeline section.
	for _, cut := range []int{24 + 24*1, len(payload) - 16} {
		if _, err := DecodeCheckpoint(payload[:cut]); err == nil {
			t.Fatalf("a payload cut to %d of %d bytes decoded", cut, len(payload))
		}
	}

	// Seeding drops out-of-order and truncated samples.
	if err := m.Truncate(commits[10].LSN); err != nil {
		t.Fatal(err)
	}
	m.SeedTimeIndex(all)
	if s, ok := m.TimeFloor(base + 5*int64(time.Second)); ok && s.LSN < commits[10].LSN {
		t.Fatalf("seed kept truncated sample %+v", s)
	}
}

// TestWalkTxnChainMustDescend: a transaction chain whose link does not point
// below its record — a record naming itself as its predecessor, a CLR whose
// UndoNextLSN is at or above its own LSN — fails the walk with
// ErrChainCorrupt instead of looping, and fn never sees that record. A
// chain that descends is walked to its Begin.
func TestWalkTxnChainMustDescend(t *testing.T) {
	walk := func(recs ...*Record) (LSN, []LSN, error) {
		byLSN := make(map[LSN]*Record)
		for _, r := range recs {
			byLSN[r.LSN] = r
		}
		read := func(lsn LSN) (*Record, error) {
			if r, ok := byLSN[lsn]; ok {
				return r, nil
			}
			return nil, errors.New("no such record")
		}
		var seen []LSN
		begin, err := WalkTxnChain(read, recs[len(recs)-1].LSN, func(r *Record) error {
			seen = append(seen, r.LSN)
			if len(seen) > 10 {
				return errors.New("walk does not end")
			}
			return nil
		})
		return begin, seen, err
	}
	begin := &Record{LSN: 10, Type: TypeBegin, TxnID: 7}
	ins := &Record{LSN: 20, Type: TypeInsert, TxnID: 7, PrevLSN: 10}
	upd := &Record{LSN: 30, Type: TypeUpdate, TxnID: 7, PrevLSN: 20}
	clr := &Record{LSN: 40, Type: TypeCLR, TxnID: 7, PrevLSN: 30, UndoNextLSN: 20}
	if got, seen, err := walk(begin, ins, upd, clr); err != nil || got != 10 || len(seen) != 2 || seen[0] != 40 || seen[1] != 20 {
		t.Fatalf("descending chain: begin %v, saw %v, err %v; want begin 10 after [40 20]", got, seen, err)
	}
	for _, c := range []struct {
		name string
		recs []*Record
	}{
		{"record naming itself", []*Record{begin, ins, {LSN: 30, Type: TypeUpdate, TxnID: 7, PrevLSN: 30}}},
		{"record naming a later one", []*Record{begin, {LSN: 20, Type: TypeInsert, TxnID: 7, PrevLSN: 30}, {LSN: 30, Type: TypeUpdate, TxnID: 7, PrevLSN: 20}}},
		{"CLR naming itself", []*Record{begin, ins, {LSN: 30, Type: TypeCLR, TxnID: 7, PrevLSN: 20, UndoNextLSN: 30}}},
		{"CLR naming a later record", []*Record{begin, ins, {LSN: 30, Type: TypeCLR, TxnID: 7, PrevLSN: 20, UndoNextLSN: 35}}},
	} {
		_, seen, err := walk(c.recs...)
		if !errors.Is(err, ErrChainCorrupt) {
			t.Errorf("%s: err %v, want ErrChainCorrupt", c.name, err)
		}
		if len(seen) > 1 {
			t.Errorf("%s: fn saw %v", c.name, seen)
		}
	}
}
