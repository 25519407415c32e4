// Replicaquery shows point-in-time queries served by a warm standby: a
// primary ships its transaction log to a replica over the in-process
// transport while writing, the replica continuously applies, and the as-of
// query — including seeing a table dropped by mistake — runs on the
// standby, stealing no primary CPU. Promotion then opens the replica
// read-write.
//
//	go run ./examples/replicaquery
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	asofdb "repro"
	"repro/internal/repl"
)

func main() {
	primDir, err := os.MkdirTemp("", "asofdb-prim")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(primDir)
	repDir, err := os.MkdirTemp("", "asofdb-rep")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(repDir)

	prim, err := asofdb.Open(primDir, asofdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer prim.Close()

	// Wire a warm standby to the primary: the shipper streams every
	// group-commit flush; the replica applies it continuously.
	ship := repl.NewShipper(prim, repl.ShipperOptions{HeartbeatEvery: 20 * time.Millisecond})
	defer ship.Close()
	rep, err := repl.OpenReplica(repDir, repl.ReplicaOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Close()
	pc, rc := repl.Pipe()
	go func() { _ = ship.Serve(pc) }()
	runDone := make(chan error, 1)
	go func() { runDone <- rep.Run(rc) }()

	// Business as usual on the primary.
	tx, err := prim.Begin()
	if err != nil {
		log.Fatal(err)
	}
	schema := &asofdb.Schema{
		Name: "orders",
		Columns: []asofdb.Column{
			{Name: "id", Kind: asofdb.KindInt64},
			{Name: "item", Kind: asofdb.KindString},
		},
		KeyCols: 1,
	}
	if err := tx.CreateTable(schema); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		if err := tx.Insert("orders", asofdb.Row{
			asofdb.Int64(int64(i)), asofdb.String(fmt.Sprintf("item-%d", i)),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	beforeDrop := time.Now()
	time.Sleep(10 * time.Millisecond)

	// Catastrophe: the table is dropped on the primary...
	tx, err = prim.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.DropTable("orders"); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("primary: orders dropped (oops)")

	// ...and the recovery query runs ON THE STANDBY: mount an as-of
	// snapshot just before the drop. SnapshotAsOf waits out any
	// replication lag, so this is safe to call right after the commit.
	snap, err := rep.SnapshotAsOf(beforeDrop)
	if err != nil {
		log.Fatal(err)
	}
	n, err := snap.CountRows("orders", nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := rep.Status()
	fmt.Printf("standby:  orders as of %s has %d rows (replica applied=%v, lag=%dB)\n",
		beforeDrop.Format(time.RFC3339), n, st.Applied, st.LagBytes)
	snap.Close()
	if n != 500 {
		log.Fatalf("standby: want 500 rows as of before the drop, got %d", n)
	}

	// Failover: once the standby has applied all the primary made durable,
	// end the stream and promote the standby. In-flight transactions are
	// rolled back, the engine opens read-write.
	for deadline := time.Now().Add(10 * time.Second); rep.AppliedLSN() < prim.Log().FlushedLSN(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("standby applied %v of the primary's %v", rep.AppliedLSN(), prim.Log().FlushedLSN())
		}
	}
	pc.Close()
	rc.Close()
	<-runDone
	db, err := rep.Promote()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	tx, err = db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	tables, err := tx.Tables()
	if err != nil {
		log.Fatal(err)
	}
	tx.Rollback()
	fmt.Printf("promoted: replica is now read-write with %d tables (orders gone here too — the standby replayed the drop)\n", len(tables))
	if len(tables) != 0 {
		log.Fatalf("promoted: want 0 tables after the drop, got %v", tables)
	}
	fmt.Println("ok: the standby served the rows as of before the drop; the promoted replica replayed the drop")
}
