package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/wal"
)

// dropStandbyRecords rewrites dir's control file without its standby
// records: the apply state is lost, and a restart replays the whole local
// log.
func dropStandbyRecords(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, control.Name)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := control.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	var kept []control.Record
	for _, r := range recs {
		if r.Kind != control.KindStandby {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(recs) {
		t.Fatal("the control file holds no standby record")
	}
	if err := os.WriteFile(path, control.Encode(kept), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaCloseAppendsOnce: a replica's Close is one flush and one
// control append — the boot record, the checkpoints applied since the last
// append, then the standby record last — not the replica's checkpoint
// followed by the engine's own close-time flush and a second, lone boot
// record.
func TestReplicaCloseAppendsOnce(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("p")) })
	mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("p", testRow(1, "v", 1)) })
	if err := c.prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	c.stopStream()
	path := filepath.Join(c.rep.DB().Dir(), control.Name)
	decode := func() []control.Record {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := control.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	before := decode()
	if err := c.rep.Close(); err != nil {
		t.Fatal(err)
	}
	after := decode()
	if len(after) < len(before) || !reflect.DeepEqual(after[:len(before)], before) {
		t.Fatalf("Close rewrote the control file: %d records before, %d after", len(before), len(after))
	}
	var kinds []control.Kind
	for _, r := range after[len(before):] {
		kinds = append(kinds, r.Kind)
	}
	n := len(kinds)
	ok := n >= 2 && kinds[0] == control.KindBoot && kinds[n-1] == control.KindStandby
	for i := 1; ok && i < n-1; i++ {
		ok = kinds[i] == control.KindCkpt
	}
	if !ok {
		t.Fatalf("Close appended records of kinds %v, want one group: boot, ckpt..., standby", kinds)
	}
}

// TestOpenReplicaRefusesPromoted: once a replica is promoted, OpenReplica
// refuses its directory with ErrPromoted — after the promoted node closes and
// after it crashes — under both sync policies. engine.Open still opens it as the primary it became.
func TestOpenReplicaRefusesPromoted(t *testing.T) {
	for _, sync := range []string{"none", "fdatasync"} {
		for _, end := range []string{"close", "crash"} {
			t.Run(sync+"/"+end, func(t *testing.T) {
				t.Setenv("ASOFDB_SYNC", sync)
				c := newCluster(t, engine.Options{}, ReplicaOptions{})
				mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("p")) })
				mustExec(t, c.prim, func(tx *engine.Txn) error { return tx.Insert("p", testRow(1, "v", 1)) })
				c.waitCaughtUp()
				c.stopStream()
				dir, opts := c.rep.DB().Dir(), c.rep.opts
				db, err := c.rep.Promote()
				if err != nil {
					t.Fatal(err)
				}
				switch end {
				case "close":
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				case "crash":
					db.Crash()
				}
				if rep, err := OpenReplica(dir, opts); !errors.Is(err, ErrPromoted) {
					if err == nil {
						rep.Close()
					}
					t.Fatalf("OpenReplica of a promoted directory: %v, want ErrPromoted", err)
				}
				db, err = engine.Open(dir, opts.Engine)
				if err != nil {
					t.Fatalf("engine.Open of the promoted directory: %v", err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzReplicaState: a standby record's body is the apply state a standby
// restarts from. Parsing it never panics; a body that parses writes back out
// to exactly the bytes it was read from, and a control file holding it as a
// standby record decodes to that record exactly when it parses (anything
// else is a torn file, and the standby rescans its whole local log). Seeds
// are bodies standby checkpoints wrote (under testdata/fuzz, one with a
// transaction in flight) and a body whose entry count is 1+2^61, which must
// not wrap the length check into an index-out-of-range panic.
func FuzzReplicaState(f *testing.F) {
	body := control.Standby{Applied: 100, ATT: []wal.ATTEntry{{TxnID: 7, LastLSN: 90, BeginLSN: 20}}}.Record().Body
	binary.LittleEndian.PutUint64(body[32:], 1+1<<61)
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		st, ok := control.ParseStandby(body)
		recs, _, _ := control.Decode(control.Encode([]control.Record{{Kind: control.KindStandby, Body: body}}))
		if ok != (len(recs) == 1) {
			t.Fatalf("body of %d bytes parses %v, but a file holding it decodes to %d records", len(body), ok, len(recs))
		}
		if !ok {
			return
		}
		if back := st.Record().Body; !bytes.Equal(back, body) {
			t.Fatalf("state %+v re-encodes to %d bytes that differ from the %d read", st, len(back), len(body))
		}
	})
}
