package asof

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/backup"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// The as-of oracle: a seeded schedule of transactions on a two-table database
// is mirrored into a plain map of every row's committed versions; as-of reads
// at random past instants must equal that map. The map knows nothing of pages,
// logs or undo — it only remembers what was committed when — so it checks the
// whole mechanism (delta update records, page rewind, in-flight undo on the
// snapshot, rollback CLRs, crash undo) against something that cannot share its
// bugs.
//
// ASOFDB_ORACLE_SEED overrides the seed and ASOFDB_ORACLE_STEPS the schedule
// length; CI runs a fresh logged seed at ten times the default length.
const (
	oracleDefaultSeed  = 22
	oracleDefaultSteps = 240
	oracleInstants     = 50
)

func oracleEnvInt(t *testing.T, name string, def int64) int64 {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, s, err)
	}
	return v
}

// version is one committed state of a row: the row (nil = deleted) from at on.
type version struct {
	at time.Time
	r  row.Row
}

type oracleKey struct {
	table string
	id    int
}

// oracle is the model: committed versions per row, oldest first.
type oracle struct {
	history map[oracleKey][]version
}

// asOf returns the rows of table visible at the instant, by id.
func (o *oracle) asOf(table string, at time.Time) map[int]row.Row {
	out := map[int]row.Row{}
	for k, vs := range o.history {
		if k.table != table {
			continue
		}
		var cur row.Row
		for _, v := range vs {
			if v.at.After(at) {
				break
			}
			cur = v.r
		}
		if cur != nil {
			out[k.id] = cur
		}
	}
	return out
}

// oracleTxn is an open transaction and what it has staged (nil = delete).
type oracleTxn struct {
	tx     *engine.Txn
	staged map[oracleKey]row.Row
}

type oracleRun struct {
	t       *testing.T
	rng     *rand.Rand
	clock   *vclock
	db      *engine.DB
	model   oracle
	ids     []int // ids the main schedule draws from
	counts  struct{ sameLen, resized, deletes, rollbacks, twiceRolledBack int }
	evicted int64 // dirty pages evicted by the engines closed so far
}

var oracleTables = [2]string{"a", "b"}

// body returns a string column value of one of four length classes; class 0
// and 1 are the same length, so moving between them is a same-length update.
func (o *oracleRun) body(class int) string {
	letter := string(rune('a' + o.rng.Intn(26)))
	switch class {
	case 0, 1:
		return strings.Repeat(letter, 12)
	case 2:
		return strings.Repeat(letter, 150+o.rng.Intn(100))
	default:
		return strings.Repeat(letter, 900+o.rng.Intn(300))
	}
}

func bodyClass(r row.Row) int {
	switch n := len(r[1].Str); {
	case n <= 12:
		return 0
	case n < 900:
		return 2
	default:
		return 3
	}
}

func (o *oracleRun) begin() *oracleTxn {
	tx, err := o.db.Begin()
	if err != nil {
		o.t.Fatal(err)
	}
	return &oracleTxn{tx: tx, staged: map[oracleKey]row.Row{}}
}

// current returns what the transaction sees under k.
func (o *oracleRun) current(x *oracleTxn, k oracleKey) row.Row {
	if r, ok := x.staged[k]; ok {
		return r
	}
	if vs := o.model.history[k]; len(vs) > 0 {
		return vs[len(vs)-1].r
	}
	return nil
}

// mutate applies one random operation on k inside x.
func (o *oracleRun) mutate(x *oracleTxn, k oracleKey) {
	cur := o.current(x, k)
	var next row.Row
	var err error
	switch pick := o.rng.Intn(10); {
	case cur == nil:
		next = testRow(k.id, o.body(o.rng.Intn(4)), o.rng.Intn(1000))
		err = x.tx.Insert(k.table, next)
	case pick == 0:
		err = x.tx.Delete(k.table, row.Row{row.Int64(int64(k.id))})
		o.counts.deletes++
	case pick <= 3:
		// Resize the string column: in place while the page has room, else
		// btree.Update's delete + re-insert.
		class := (bodyClass(cur) + 2 + o.rng.Intn(2)) % 4
		if class == 1 {
			class = 3
		}
		next = testRow(k.id, o.body(class), int(cur[2].Int))
		err = x.tx.Update(k.table, next)
		o.counts.resized++
	default:
		next = testRow(k.id, cur[1].Str, o.rng.Intn(1000))
		if bodyClass(cur) == 0 && o.rng.Intn(2) == 0 {
			next[1] = row.String(o.body(1))
		}
		err = x.tx.Update(k.table, next)
		o.counts.sameLen++
	}
	if err != nil {
		o.t.Fatalf("%v on %v: %v", k, cur, err)
	}
	x.staged[k] = next
}

// commit commits x at a fresh instant and records its versions.
func (o *oracleRun) commit(x *oracleTxn) {
	at := o.clock.Advance(time.Second)
	if err := x.tx.Commit(); err != nil {
		o.t.Fatal(err)
	}
	for k, r := range x.staged {
		o.model.history[k] = append(o.model.history[k], version{at, r})
	}
}

func (o *oracleRun) randomKey() oracleKey {
	return oracleKey{oracleTables[o.rng.Intn(2)], o.ids[o.rng.Intn(len(o.ids))]}
}

// open opens (or recovers) the database; ASOFDB_SYNC=fdatasync makes every
// log force a real one, as in the other crash suites. A checkpoint every
// 16 KiB of log on a pool smaller than the database interleaves fuzzy
// checkpoints, dirty evictions and the crash.
func (o *oracleRun) open(dir string) {
	sync, err := wal.ParseSyncPolicy(os.Getenv("ASOFDB_SYNC"))
	if err != nil {
		o.t.Fatalf("ASOFDB_SYNC: %v", err)
	}
	db, err := engine.Open(dir, engine.Options{Clock: o.clock, BufferFrames: 24, CheckpointEvery: 16 << 10, SyncPolicy: sync})
	if err != nil {
		o.t.Fatal(err)
	}
	o.db = db
}

func TestAsOfOracle(t *testing.T) {
	seed := oracleEnvInt(t, "ASOFDB_ORACLE_SEED", oracleDefaultSeed)
	steps := int(oracleEnvInt(t, "ASOFDB_ORACLE_STEPS", oracleDefaultSteps))
	t.Logf("oracle: %d steps from seed %d — replay with ASOFDB_ORACLE_SEED=%d ASOFDB_ORACLE_STEPS=%d", steps, seed, seed, steps)
	o := &oracleRun{t: t, rng: rand.New(rand.NewSource(seed)), clock: newVClock()}
	o.model.history = map[oracleKey][]version{}
	dir := t.TempDir()
	o.open(dir)
	defer func() { o.db.Close() }()

	setup := o.begin()
	for _, name := range oracleTables {
		if err := setup.tx.CreateTable(testSchema(name)); err != nil {
			t.Fatal(err)
		}
	}
	o.commit(setup)
	// The restore baseline starts from a full backup taken here and replays
	// the whole schedule, crash and recovery CLRs included, up to the instant.
	bak, err := backup.Full(o.db, filepath.Join(t.TempDir(), "oracle.bak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 120; id++ {
		o.ids = append(o.ids, id)
	}
	// Rows only the long-running transaction touches, so it never waits on a
	// lock of the main schedule (one goroutine drives both).
	const stragglerBase, stragglerRows = 5000, 16
	seedTx := o.begin()
	for _, name := range oracleTables {
		for i := 0; i < stragglerRows; i++ {
			o.mutate(seedTx, oracleKey{name, stragglerBase + i})
		}
	}
	o.commit(seedTx)

	var instants []time.Time
	var straggler *oracleTxn
	stragglerKey := func() oracleKey {
		return oracleKey{oracleTables[o.rng.Intn(2)], stragglerBase + o.rng.Intn(stragglerRows)}
	}
	for step := 0; step < steps; step++ {
		switch {
		case step == steps/4:
			// Split-heavy phase: a run of large new rows in key order between
			// existing keys and past them, in both tables.
			x := o.begin()
			for i := 0; i < 160; i++ {
				id := 60 + i*3%400 + 1000*(i%2)
				k := oracleKey{oracleTables[i%2], id}
				if o.current(x, k) == nil {
					r := testRow(id, o.body(2+i%2), i)
					if err := x.tx.Insert(k.table, r); err != nil {
						t.Fatal(err)
					}
					x.staged[k] = r
					o.ids = append(o.ids, id)
				}
			}
			o.commit(x)
		case step == steps/2:
			// Crash with two transactions in flight (the straggler, if open,
			// and one begun here that updated a row twice); a commit after
			// their records forces those records to disk, so recovery has
			// them to undo.
			doomed := o.begin()
			k := o.randomKey()
			for i := 0; i < 3; i++ {
				o.mutate(doomed, k)
				o.mutate(doomed, o.randomKey())
			}
			x := o.begin()
			o.mutate(x, oracleKey{"a", 9000 + step})
			o.commit(x)
			o.evicted += o.db.Pool().Stats().EvictWritebacks
			// Every instant so far resolves and reads the same before the
			// crash and after recovery, which rebuilds the time samples,
			// checkpoints and analysis marks the crashed system had.
			before := o.views(instants)
			o.db.Crash()
			straggler = nil
			o.open(dir)
			for i, v := range o.views(instants) {
				if v != before[i] {
					t.Fatalf("seed %d, as of %s: %+v before the crash, %+v after recovery",
						seed, instants[i].Format(time.RFC3339Nano), before[i], v)
				}
			}
		}

		// The long-running transaction: opened, worked on over several
		// steps, then committed or rolled back. Instants inside its life make
		// the snapshot undo it as an in-flight transaction.
		switch {
		case straggler == nil && o.rng.Intn(6) == 0:
			straggler = o.begin()
			k := stragglerKey()
			o.mutate(straggler, k)
			o.mutate(straggler, k)
		case straggler != nil && o.rng.Intn(3) == 0:
			o.mutate(straggler, stragglerKey())
		case straggler != nil && o.rng.Intn(5) == 0:
			if o.rng.Intn(3) == 0 {
				if err := straggler.tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				o.counts.rollbacks++
			} else {
				o.commit(straggler)
			}
			straggler = nil
		}

		x := o.begin()
		for n := 1 + o.rng.Intn(5); n > 0; n-- {
			o.mutate(x, o.randomKey())
		}
		if o.rng.Intn(6) == 0 {
			// A rollback whose transaction updated one row twice: the CLRs
			// are deltas computed from the row the first undo left. (Early
			// on there may be no row to update; then it is a plain rollback.)
			k := o.randomKey()
			for try := 0; try < 50 && o.current(x, k) == nil; try++ {
				k = o.randomKey()
			}
			for i := 0; i < 2 && o.current(x, k) != nil; i++ {
				r := testRow(k.id, o.current(x, k)[1].Str, o.rng.Intn(1000))
				if err := x.tx.Update(k.table, r); err != nil {
					t.Fatal(err)
				}
				x.staged[k] = r
				o.counts.twiceRolledBack += i
			}
			if err := x.tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			o.counts.rollbacks++
			o.clock.Advance(time.Second)
		} else {
			o.commit(x)
		}
		instants = append(instants, o.clock.Now().Add(500*time.Millisecond))
	}
	if straggler != nil {
		o.commit(straggler)
	}
	o.clock.Advance(time.Minute)

	// What the schedule exercised, read back from the log it wrote: updates
	// that kept and that changed the row's length in place, and updates that
	// did not fit their page (a plain delete record no Delete call explains).
	var inPlaceSame, inPlaceResized, plainDeletes, fuzzyCkpts int
	err = o.db.Log().Scan(o.db.Log().TruncationPoint(), func(rec *wal.Record) (bool, error) {
		switch {
		case rec.Type == wal.TypeCheckpointEnd:
			data, err := wal.DecodeCheckpoint(rec.Extra)
			if err != nil {
				return false, err
			}
			if len(data.DPT) > 0 {
				fuzzyCkpts++
			}
		case rec.Type == wal.TypeUpdate && len(rec.OldData) == len(rec.NewData):
			inPlaceSame++
		case rec.Type == wal.TypeUpdate:
			inPlaceResized++
		case rec.Type == wal.TypeDelete && rec.Flags&wal.FlagNTA == 0:
			plainDeletes++
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evicted := o.evicted + o.db.Pool().Stats().EvictWritebacks
	t.Logf("oracle: %d same-length and %d resizing updates issued, %d deletes, %d rollbacks (%d after updating a row twice); log holds %d same-length and %d resizing update records and %d updates that moved by delete + insert; %d checkpoints with a dirty-page table, %d dirty pages evicted",
		o.counts.sameLen, o.counts.resized, o.counts.deletes, o.counts.rollbacks, o.counts.twiceRolledBack,
		inPlaceSame, inPlaceResized, plainDeletes-o.counts.deletes, fuzzyCkpts, evicted)
	if inPlaceSame == 0 || inPlaceResized == 0 || plainDeletes <= o.counts.deletes || o.counts.twiceRolledBack == 0 ||
		fuzzyCkpts == 0 || evicted == 0 {
		t.Fatalf("seed %d: the schedule missed a case it exists to cover", seed)
	}

	o.rng.Shuffle(len(instants), func(i, j int) { instants[i], instants[j] = instants[j], instants[i] })
	if len(instants) > oracleInstants {
		instants = instants[:oracleInstants]
	}
	restoreDir := t.TempDir()
	restoredInflight := 0
	for i, at := range instants {
		s, err := CreateSnapshot(o.db, at, nil)
		if err == nil {
			err = o.checkInstant(s, at)
			if i%5 == 0 && len(s.Point().ATT) > 0 {
				restoredInflight++
			}
			s.Close()
		}
		if err != nil {
			t.Fatalf("seed %d, as of %s: %v", seed, at.Format(time.RFC3339Nano), err)
		}
		if i%5 != 0 {
			continue
		}
		rst, err := backup.RestoreToTime(bak, o.db.Log(), at, filepath.Join(restoreDir, fmt.Sprintf("r%d.db", i)), nil)
		if err == nil {
			err = o.checkInstant(rst, at)
			rst.Close()
		}
		if err != nil {
			t.Fatalf("seed %d, restored to %s: %v", seed, at.Format(time.RFC3339Nano), err)
		}
	}
	t.Logf("oracle: %d instants checked on snapshots, every 5th also restored from the backup (%d of those with transactions in flight)",
		len(instants), restoredInflight)
}

// instantView is what an instant resolves to and reads: the SplitLSN, the
// transactions in flight at it (id and last record) and a digest of both
// tables as of it.
type instantView struct {
	split  wal.LSN
	att    string
	digest uint64
}

// views resolves and reads each instant on the database as it is now.
func (o *oracleRun) views(instants []time.Time) []instantView {
	out := make([]instantView, len(instants))
	for i, at := range instants {
		s, err := CreateSnapshot(o.db, at, nil)
		if err != nil {
			o.t.Fatalf("as of %s: %v", at.Format(time.RFC3339Nano), err)
		}
		pt := s.Point()
		att := make([]string, len(pt.ATT))
		for j, e := range pt.ATT {
			att[j] = fmt.Sprintf("%d@%v", e.TxnID, e.LastLSN)
		}
		sort.Strings(att)
		h := fnv.New64a()
		for _, table := range oracleTables {
			if err := s.Scan(table, nil, nil, func(r row.Row) bool {
				h.Write(row.Encode(r))
				return true
			}); err != nil {
				o.t.Fatalf("as of %s: scan %s: %v", at.Format(time.RFC3339Nano), table, err)
			}
		}
		s.Close()
		out[i] = instantView{split: pt.SplitLSN, att: strings.Join(att, ","), digest: h.Sum64()}
	}
	return out
}

// asOfReader is the read surface an as-of snapshot and a restored backup share.
type asOfReader interface {
	Scan(table string, from, to row.Row, fn func(row.Row) bool) error
	GetMany(table string, keys []row.Row) ([]row.Row, error)
	Get(table string, keyVals row.Row) (row.Row, bool, error)
}

// checkInstant compares Scan, GetMany and Get on both tables of s, a view of
// the database as of at, with the model.
func (o *oracleRun) checkInstant(s asOfReader, at time.Time) error {
	for _, table := range oracleTables {
		want := o.model.asOf(table, at)
		ids := make([]int, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Ints(ids)

		var got []row.Row
		if err := s.Scan(table, nil, nil, func(r row.Row) bool {
			got = append(got, r)
			return true
		}); err != nil {
			return fmt.Errorf("scan %s: %w", table, err)
		}
		if len(got) != len(ids) {
			return fmt.Errorf("scan %s: %d rows, the model has %d", table, len(got), len(ids))
		}
		for i, id := range ids {
			if !sameRow(got[i], want[id]) {
				return fmt.Errorf("scan %s row %d: %v, the model has %v", table, i, got[i], want[id])
			}
		}

		// Point reads: every third visible id, and ids that are absent as of
		// the instant (never inserted, not yet inserted, or deleted).
		var keys []row.Row
		var expect []row.Row
		for i := 0; i < len(ids); i += 3 {
			keys = append(keys, row.Row{row.Int64(int64(ids[i]))})
			expect = append(expect, want[ids[i]])
		}
		for _, id := range o.ids[:40] {
			if _, ok := want[id]; !ok {
				keys = append(keys, row.Row{row.Int64(int64(id))})
				expect = append(expect, nil)
			}
		}
		many, err := s.GetMany(table, keys)
		if err != nil {
			return fmt.Errorf("GetMany %s: %w", table, err)
		}
		for i := range keys {
			if !sameRow(many[i], expect[i]) {
				return fmt.Errorf("GetMany %s key %v: %v, the model has %v", table, keys[i], many[i], expect[i])
			}
			if i%4 == 0 {
				one, ok, err := s.Get(table, keys[i])
				if err != nil || ok != (expect[i] != nil) || !sameRow(one, expect[i]) {
					return fmt.Errorf("Get %s key %v: %v ok=%v err=%v, the model has %v", table, keys[i], one, ok, err, expect[i])
				}
			}
		}
	}
	return nil
}

func sameRow(a, b row.Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return bytes.Equal(row.Encode(a), row.Encode(b))
}

// TestRewindOverAForeignRowIsChainBroken: a page whose row is not the one the
// update record left fails the rewind with ErrChainBroken (wrapping the log's
// own ErrChainCorrupt) instead of splicing the old bytes into it.
func TestRewindOverAForeignRowIsChainBroken(t *testing.T) {
	db := openDB(t, newVClock(), engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "before", 1)) })
	split := db.Log().NextLSN() - 1
	exec(t, db, func(tx *engine.Txn) error { return tx.Update("t", testRow(1, "after!", 1)) })
	var root uint32
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		root = uint32(tbl.Root)
		return err
	})
	h, err := db.Pool().Fetch(page.ID(root), false)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), h.Page().Bytes()...)
	h.Release()
	at := bytes.Index(buf, []byte("after!"))
	if at < 0 {
		t.Fatal("the updated row is not on the table's root page")
	}
	buf[at+2] ^= 0x20
	err = PreparePageAsOf(page.FromBytes(buf), split, db.Log(), nil)
	if !errors.Is(err, ErrChainBroken) || !errors.Is(err, wal.ErrChainCorrupt) {
		t.Fatalf("rewind over a changed row: %v, want ErrChainBroken wrapping wal.ErrChainCorrupt", err)
	}
}

// TestSnapshotUndoOfAnAllocByteOffThePageIsChainCorrupt: an in-flight
// transaction's allocation bitmap record whose byte index lies past the page
// fails the snapshot's background undo with wal.ErrChainCorrupt. The
// snapshot's own copy of that undo indexed the page unchecked and panicked
// in the undo goroutine, killing the process.
func TestSnapshotUndoOfAnAllocByteOffThePageIsChainCorrupt(t *testing.T) {
	db := openDB(t, newVClock(), engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const txn = 1 << 40
	begin, err := db.Log().Append(&wal.Record{Type: wal.TypeBegin, TxnID: txn, PageID: wal.NoPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Append(&wal.Record{Type: wal.TypeAllocBits, TxnID: txn, PrevLSN: begin,
		PageID: 1, Slot: 9000, OldData: []byte{0}, NewData: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "x", 1)) })
	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitUndo(); !errors.Is(err, wal.ErrChainCorrupt) {
		t.Fatalf("undo of an alloc byte past the page: %v, want wal.ErrChainCorrupt", err)
	}
}
