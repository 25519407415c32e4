package repl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
	"repro/internal/row"
)

// TestReplicaAsOfAcrossPointSplitsAndFrees: a standby applies a history made
// of zero-move splits, a run-boundary split, leaf frees and the re-allocation
// of the freed pages by another table as ordinary page records, and serves
// as-of reads at every step of it that are byte-identical to the primary's.
func TestReplicaAsOfAcrossPointSplitsAndFrees(t *testing.T) {
	c := newCluster(t, engine.Options{}, ReplicaOptions{})
	body := strings.Repeat("B", 400)
	insert := func(table string, from, to int) func(tx *engine.Txn) error {
		return func(tx *engine.Txn) error {
			for i := from; i < to; i++ {
				if err := tx.Insert(table, testRow(i, body, i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var marks []time.Time
	step := func(fn func(tx *engine.Txn) error) {
		mustExec(t, c.prim, fn)
		c.clock.Advance(time.Second)
		marks = append(marks, c.clock.Now())
		c.clock.Advance(time.Second)
	}
	metric := func(name string) float64 { return c.prim.Obs().Snapshot()[name] }

	step(func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	step(insert("t", 1000, 1006))
	for from := 0; from < 160; from += 8 {
		step(insert("t", from, from+8))
	}
	for from := 0; from < 120; from += 10 {
		step(func(tx *engine.Txn) error {
			for i := from; i < from+10; i++ {
				if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	step(func(tx *engine.Txn) error { return tx.CreateTable(testSchema("u")) })
	step(insert("u", 0, 100))
	step(insert("t", 160, 200))
	if p, f := metric(`btree_splits_total{kind="point"}`), metric("btree_leaf_frees_total"); p < 6 || f < 4 {
		t.Fatalf("history has %v insertion-point splits and %v leaf frees", p, f)
	}
	if _, err := c.prim.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()

	for i, at := range marks {
		ps, err := asof.CreateSnapshot(c.prim, at, nil)
		if err != nil {
			t.Fatalf("mark %d: primary: %v", i, err)
		}
		rs, err := c.rep.SnapshotAsOf(at)
		if err != nil {
			t.Fatalf("mark %d: replica: %v", i, err)
		}
		if p, r := ps.SplitLSN(), rs.SplitLSN(); p != r {
			t.Fatalf("mark %d: split divergence: primary %v, replica %v", i, p, r)
		}
		pd, rd := digest(t, ps), digest(t, rs)
		ps.Close()
		rs.Close()
		if len(pd) == 0 || fmt.Sprint(pd) != fmt.Sprint(rd) {
			t.Fatalf("mark %d: as-of digests diverge:\nprimary: %v\nreplica: %v", i, pd, rd)
		}
	}
}
