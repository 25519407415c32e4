// Command asofctl is a small admin tool over an asofdb database directory:
// it inspects state, mounts as-of snapshots and runs simple queries — the
// operational surface of the paper's recovery workflow.
//
// Usage:
//
//	asofctl -db DIR init                      create an empty database
//	asofctl -db DIR demo                      load a demo table with rows
//	asofctl -db DIR tables                    list tables (current state)
//	asofctl -db DIR count TABLE               count rows in TABLE
//	asofctl -db DIR drop TABLE                drop TABLE
//	asofctl -db DIR tables-asof RFC3339       list tables as of a past time
//	asofctl -db DIR count-asof RFC3339 TABLE  count rows as of a past time
//	asofctl -db DIR recover RFC3339 TABLE     restore TABLE from the past
//	                                          into the current database
//	asofctl -db DIR history RFC3339 RFC3339   list transactions committed
//	                                          in the window
//	asofctl -db DIR undo-txn LSN [force]      undo one committed transaction
//	asofctl -db DIR log-ls [ARCHIVEDIR]       list WAL segments (base LSN,
//	                                          sealed/active, retention
//	                                          horizon; archived set too when
//	                                          ARCHIVEDIR is given)
//
// Observability (the -obs ADDR flag on serve/replica/cascade additionally
// exposes Prometheus /metrics, /metrics.json and pprof on ADDR):
//
//	asofctl -db DIR metrics                   one-shot Prometheus text dump
//	                                          of the directory's registry
//	asofctl top ADDR [INTERVAL]               live terminal view over a node
//	                                          started with -obs ADDR: commit
//	                                          rate and latency quantiles,
//	                                          fsync p50/p99, pool hit rate,
//	                                          per-replica lag
//
// Replication (log-shipped warm standbys, serving as-of queries):
//
//	asofctl -db DIR serve ADDR                run the primary and ship its
//	                                          log to replicas on ADDR
//	asofctl -db DIR replica ADDR              run DIR as a warm standby fed
//	                                          from the primary at ADDR
//	asofctl -db DIR cascade UPSTREAM LISTEN   run DIR as a mid-tier standby:
//	                                          fed from UPSTREAM, re-shipping
//	                                          its local log to downstream
//	                                          replicas on LISTEN (chains
//	                                          compose: primary → R1 → R2 …)
//	asofctl repl-status ADDR                  per-replica timeline/shipped/
//	                                          applied/durable/retained LSNs
//	                                          and lag; cascades render as a
//	                                          tree
//	asofctl -db DIR promote                   promote the standby at DIR onto
//	                                          a new timeline (the manual
//	                                          failover step: survivors at or
//	                                          below the fork may resubscribe
//	                                          to it; nodes past the fork must
//	                                          reseed)
//	asofctl -db DIR count-asof-standby RFC3339 TABLE
//	                                          count rows as of a past time
//	                                          on a standby directory
//	asofctl route -at RFC3339 -table T [-token LSN] [-primary DIR] DIR...
//	                                          route a read-your-writes read
//	                                          across standby directories:
//	                                          serve from the least-lagged
//	                                          standby whose applied LSN has
//	                                          reached the session token,
//	                                          falling back to -primary
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	asofdb "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

func main() {
	dbdir := flag.String("db", "", "database directory (required)")
	obsAddr := flag.String("obs", "", "serve Prometheus /metrics, /metrics.json and pprof on this address (serve/replica/cascade)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Replication subcommands manage their own engines: a standby
	// directory must be opened in standby mode (never through crash
	// recovery, which would append to the shipped log), and repl-status
	// only dials the primary.
	switch args[0] {
	case "serve":
		need(args, 2)
		if *dbdir == "" {
			fatal(fmt.Errorf("serve requires -db"))
		}
		servePrimary(*dbdir, args[1], *obsAddr)
		return
	case "replica":
		need(args, 2)
		if *dbdir == "" {
			fatal(fmt.Errorf("replica requires -db"))
		}
		runReplica(*dbdir, args[1], "", *obsAddr)
		return
	case "cascade":
		need(args, 3)
		if *dbdir == "" {
			fatal(fmt.Errorf("cascade requires -db"))
		}
		runReplica(*dbdir, args[1], args[2], *obsAddr)
		return
	case "metrics":
		// One-shot Prometheus text dump of the directory's registry — the
		// scrape surface without a listener.
		if *dbdir == "" {
			fatal(fmt.Errorf("metrics requires -db"))
		}
		metricsDump(*dbdir)
		return
	case "top":
		// Live terminal view over a node started with -obs.
		need(args, 2)
		every := time.Second
		if len(args) > 2 {
			d, err := time.ParseDuration(args[2])
			if err != nil {
				fatal(fmt.Errorf("bad refresh interval %q: %w", args[2], err))
			}
			every = d
		}
		if err := runTop(args[1], 0, every, os.Stdout); err != nil {
			fatal(err)
		}
		return
	case "route":
		routeRead(args[1:])
		return
	case "count-asof-standby":
		need(args, 3)
		if *dbdir == "" {
			fatal(fmt.Errorf("count-asof-standby requires -db"))
		}
		countOnStandby(*dbdir, args[1], args[2])
		return
	case "repl-status":
		need(args, 2)
		replStatus(args[1])
		return
	case "promote":
		// Promotion must open the directory in standby mode (Promote runs
		// the recovery-and-fork sequence itself), never through asofdb.Open.
		if *dbdir == "" {
			fatal(fmt.Errorf("promote requires -db"))
		}
		promoteStandby(*dbdir)
		return
	case "log-ls":
		// Offline inspection: reads segment headers only, never opens the
		// engine (which would run recovery and append to the log).
		if *dbdir == "" {
			fatal(fmt.Errorf("log-ls requires -db"))
		}
		archiveDir := ""
		if len(args) > 1 {
			archiveDir = args[1]
		}
		logLs(*dbdir, archiveDir)
		return
	}

	if *dbdir == "" {
		flag.Usage()
		os.Exit(2)
	}
	db, err := asofdb.Open(*dbdir, asofdb.Options{})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	cmd := args[0]
	switch cmd {
	case "init":
		fmt.Println("database ready at", *dbdir)
	case "demo":
		if err := demo(db); err != nil {
			fatal(err)
		}
	case "tables":
		tx, err := db.Begin()
		if err != nil {
			fatal(err)
		}
		defer tx.Rollback()
		tables, err := tx.Tables()
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Printf("%-20s id=%-4d root=%-6d %s\n", t.Name, t.ID, t.Root, t.Schema)
		}
	case "count":
		need(args, 2)
		tx, err := db.Begin()
		if err != nil {
			fatal(err)
		}
		defer tx.Rollback()
		n, err := tx.CountRows(args[1], nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "drop":
		need(args, 2)
		tx, err := db.Begin()
		if err != nil {
			fatal(err)
		}
		if err := tx.DropTable(args[1]); err != nil {
			tx.Rollback()
			fatal(err)
		}
		if err := tx.Commit(); err != nil {
			fatal(err)
		}
		fmt.Println("dropped", args[1])
	case "tables-asof":
		need(args, 2)
		snap := mountSnapshot(db, args[1])
		defer snap.Close()
		tables, err := snap.Tables()
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Printf("%-20s id=%-4d %s\n", t.Name, t.ID, t.Schema)
		}
	case "count-asof":
		need(args, 3)
		snap := mountSnapshot(db, args[1])
		defer snap.Close()
		n, err := snap.CountRows(args[2], nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "recover":
		need(args, 3)
		snap := mountSnapshot(db, args[1])
		defer snap.Close()
		if err := recoverTable(db, snap, args[2]); err != nil {
			fatal(err)
		}
	case "history":
		need(args, 3)
		from := parseTime(args[1])
		to := parseTime(args[2])
		commits, err := asofdb.FindCommits(db, from, to)
		if err != nil {
			fatal(err)
		}
		for _, c := range commits {
			fmt.Printf("commit lsn=%-10d txn=%-6d ops=%-5d at=%s\n",
				c.CommitLSN, c.TxnID, c.Ops, c.At.UTC().Format(time.RFC3339Nano))
		}
	case "undo-txn":
		need(args, 2)
		var lsn uint64
		if _, err := fmt.Sscanf(args[1], "%d", &lsn); err != nil {
			fatal(fmt.Errorf("bad LSN %q: %w", args[1], err))
		}
		force := len(args) > 2 && args[2] == "force"
		report, err := asofdb.UndoTransaction(db, asofdb.LSN(lsn), force)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("undone txn %d: %d inserts removed, %d deletes restored, %d updates reverted (compensating txn %d)\n",
			report.TxnID, report.InsertsRemoved, report.DeletesRestored,
			report.UpdatesReverted, report.CompensatingTxn)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// servePrimary opens the database and ships its log to any replica that
// connects on addr, printing per-replica status once a second. obsAddr, when
// non-empty, exposes the metrics/pprof listener.
func servePrimary(dir, addr, obsAddr string) {
	db, err := asofdb.Open(dir, asofdb.Options{ObsListen: obsAddr})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if a := db.ObsAddr(); a != "" {
		fmt.Println("metrics on http://" + a + "/metrics")
	}
	ship := repl.NewShipper(db, repl.ShipperOptions{})
	defer ship.Close()
	lis, err := repl.ListenAndServe(addr, ship)
	if err != nil {
		fatal(err)
	}
	defer lis.Close()
	fmt.Println("primary shipping on", lis.Addr())
	for {
		time.Sleep(time.Second)
		if err := db.BackgroundCheckpointErr(); err != nil {
			fmt.Fprintln(os.Stderr, "asofctl: background checkpoint/retention:", err)
		}
		for _, st := range ship.Status() {
			fmt.Printf("replica %d: shipped=%d applied=%d durable=%d retained=%d lag=%dB/%.1fs last-commit=%s\n",
				st.ID, st.Shipped, st.Applied, st.ReplicaDurable, st.Retained, st.LagBytes, st.LagSeconds,
				fmtTime(st.LastCommitAt))
		}
	}
}

// runReplica opens (creating if needed) dir as a warm standby fed from the
// upstream at addr, printing its own lag once a second, and — when
// listenAddr is non-empty — re-shipping its local log to downstream
// replicas on listenAddr (the cascading mid-tier role; hops compose into
// arbitrary fan-out trees). It reconnects on stream errors.
func runReplica(dir, addr, listenAddr, obsAddr string) {
	rep, err := repl.OpenReplica(dir, repl.ReplicaOptions{Engine: asofdb.Options{ObsListen: obsAddr}})
	if err != nil {
		fatal(err)
	}
	defer rep.Close()
	if a := rep.DB().ObsAddr(); a != "" {
		fmt.Println("metrics on http://" + a + "/metrics")
	}
	if listenAddr != "" {
		cascade := rep.ShipLocal(repl.ShipperOptions{})
		lis, err := repl.ListenAndServe(listenAddr, cascade)
		if err != nil {
			fatal(err)
		}
		defer lis.Close()
		fmt.Println("cascading standby re-shipping on", lis.Addr())
	}
	go func() {
		for {
			time.Sleep(time.Second)
			st := rep.Status()
			fmt.Printf("applied=%d durable=%d upstream=%d lag=%dB/%s last-commit=%s\n",
				st.Applied, st.LocalDurable, st.PrimaryDurable, st.LagBytes,
				st.LagTime.Round(time.Millisecond), fmtTime(st.LastCommitAt))
		}
	}()
	for {
		conn, err := repl.Dial(addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asofctl: dial:", err, "- retrying in 1s")
			time.Sleep(time.Second)
			continue
		}
		err = rep.Run(conn)
		conn.Close()
		if err == nil {
			return // clean session end (primary closed)
		}
		if errors.Is(err, repl.ErrSubscriptionRejected) {
			// Retrying cannot succeed: the primary no longer holds the log
			// this replica needs (reseed from a backup, or start fresh).
			fatal(err)
		}
		if errors.Is(err, repl.ErrUpstreamPromoted) {
			// Deterministic fence: the upstream standby was promoted and its
			// log forks past what we hold. Re-point this replica (run it
			// again against the promoted node or the old primary) or leave
			// it serving its applied horizon.
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "asofctl: stream:", err, "- reconnecting in 1s")
		time.Sleep(time.Second)
	}
}

// routeRead is the read-your-writes routing demo over offline standby
// directories: pick the least-lagged standby whose applied LSN has reached
// the session token and run a count-as-of there, falling back to -primary
// when every standby lags behind the token.
func routeRead(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	at := fs.String("at", "", "as-of time (RFC3339, required)")
	table := fs.String("table", "", "table to count (required)")
	token := fs.Uint64("token", 0, "session token: the durable commit LSN of the session's last write")
	primaryDir := fs.String("primary", "", "primary database directory (fallback target)")
	wait := fs.Duration("wait", 2*time.Second, "how long to wait for a standby to reach the token")
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *at == "" || *table == "" || fs.NArg() == 0 {
		fatal(fmt.Errorf("route requires -at, -table and at least one standby directory"))
	}
	when := parseTime(*at)

	var primary *asofdb.DB
	if *primaryDir != "" {
		db, err := asofdb.Open(*primaryDir, asofdb.Options{})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		primary = db
	}
	rt := repl.NewRouter(primary, repl.RouterOptions{SnapshotWait: *wait})
	for _, dir := range fs.Args() {
		rep, err := repl.OpenReplica(dir, repl.ReplicaOptions{})
		if err != nil {
			fatal(fmt.Errorf("standby %s: %w", dir, err))
		}
		defer rep.Close()
		rt.AddStandby(dir, rep)
	}

	sess := &repl.Session{}
	sess.Observe(wal.LSN(*token))
	snap, route, err := rt.SnapshotAsOf(sess, when)
	if err != nil {
		fatal(err)
	}
	defer snap.Close()
	n, err := snap.CountRows(*table, nil, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("served by %s (applied=%d, token=%d): %d rows as of %s; session token now %d\n",
		route.Name, route.AppliedLSN, *token, n, when.UTC().Format(time.RFC3339), sess.Token())
}

// countOnStandby mounts an as-of snapshot on a standby directory — no
// primary connection needed; the standby serves the past it has applied.
func countOnStandby(dir, when, table string) {
	at := parseTime(when)
	rep, err := repl.OpenReplica(dir, repl.ReplicaOptions{})
	if err != nil {
		fatal(err)
	}
	defer rep.Close()
	snap, err := rep.SnapshotAsOf(at)
	if err != nil {
		fatal(err)
	}
	defer snap.Close()
	n, err := snap.CountRows(table, nil, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Println(n)
}

// replStatus asks the primary at addr for its per-replica report.
func replStatus(addr string) {
	conn, err := repl.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&repl.Frame{Kind: repl.KindStatus}); err != nil {
		fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		fatal(err)
	}
	if f.Kind != repl.KindStatus {
		fatal(fmt.Errorf("unexpected %v reply", f.Kind))
	}
	var sts []repl.SubscriberStatus
	if err := json.Unmarshal(f.Payload, &sts); err != nil {
		fatal(err)
	}
	if len(sts) == 0 {
		fmt.Println("no replicas connected")
		return
	}
	fmt.Printf("%-12s %-4s %-12s %-12s %-12s %-12s %-12s %-10s %-10s %s\n",
		"id", "tli", "upstream", "shipped", "applied", "durable", "retained", "lag-bytes", "lag", "last-commit")
	printReplTree(sts, "")
}

// printReplTree renders a shipper status report, recursing into each
// subscriber's own downstream fan-out (cascading standbys) with one level
// of indentation per hop. "upstream" is each hop's source durable LSN —
// the primary at depth 0, the mid-tier standby below. "tli" is the timeline
// the subscriber presented at its handshake: a node showing an older
// timeline than its siblings is following a lineage the next promotion may
// strand.
func printReplTree(sts []repl.SubscriberStatus, indent string) {
	for _, st := range sts {
		lag := fmt.Sprintf("%.1fs", st.LagSeconds)
		if st.Idle {
			lag = "idle"
		}
		fmt.Printf("%-12s %-4d %-12d %-12d %-12d %-12d %-12d %-10d %-10s %s\n",
			fmt.Sprintf("%s%d", indent, st.ID), st.Timeline, st.PrimaryDurable, st.Shipped, st.Applied,
			st.ReplicaDurable, st.Retained, st.LagBytes, lag, fmtTime(st.LastCommitAt))
		printReplTree(st.Downstream, indent+"└ ")
	}
}

// promoteStandby ends dir's life as a standby: local recovery completes its
// applied state, the log forks onto a fresh timeline recording the fork
// point, and the engine reopens writable. The printed lineage is what every
// other node's subscription will be checked against.
func promoteStandby(dir string) {
	rep, err := repl.OpenReplica(dir, repl.ReplicaOptions{})
	if err != nil {
		fatal(err)
	}
	db, err := rep.Promote()
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	tli, hist := db.Timeline()
	fmt.Printf("promoted %s: now primary on %s, durable end %v\n", dir, wal.DescribeLineage(tli, hist), db.Log().FlushedLSN())
	if len(hist) > 0 {
		fork := hist[len(hist)-1]
		fmt.Printf("forked from timeline %d at %v: standbys at or below the fork may resubscribe; nodes holding bytes past it must reseed\n",
			fork.TLI, fork.End)
	}
}

// logLs lists the database's live WAL segments (and, when an archive
// directory is given, the archived set) with the retention horizon.
func logLs(dbdir, archiveDir string) {
	printSegs := func(title, state string, segs []wal.SegmentInfo, markActive bool) {
		fmt.Printf("%s (%d segments)\n", title, len(segs))
		fmt.Printf("  %-6s %-14s %-14s %-12s %-8s %s\n", "seq", "base-lsn", "end-lsn", "bytes", "state", "file")
		for i, s := range segs {
			st := state
			if markActive && i == len(segs)-1 {
				st = "active"
			}
			fmt.Printf("  %-6d %-14d %-14d %-12d %-8s %s\n",
				s.Seq, s.Base, s.End, s.Bytes, st, filepath.Base(s.Path))
		}
	}
	if archiveDir != "" {
		arch, err := wal.ListSegments(archiveDir)
		if err != nil {
			fatal(err)
		}
		printSegs("archive", "archived", arch, false)
	}
	segs, err := wal.ListSegments(filepath.Join(dbdir, "wal"))
	if err != nil {
		fatal(err)
	}
	if len(segs) == 0 {
		fmt.Println("no segments (empty or pre-segmentation database)")
		return
	}
	printSegs("live", "sealed", segs, true)
	fmt.Printf("retention floor: lsn %d (records below the horizon may only exist in the archive)\n", segs[0].Base)
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format(time.RFC3339)
}

func parseTime(s string) time.Time {
	at, err := time.Parse(time.RFC3339, s)
	if err != nil {
		fatal(fmt.Errorf("parse time %q: %w (want RFC3339)", s, err))
	}
	return at
}

func mountSnapshot(db *asofdb.DB, when string) *asofdb.Snapshot {
	at, err := time.Parse(time.RFC3339, when)
	if err != nil {
		fatal(fmt.Errorf("parse time %q: %w (want RFC3339)", when, err))
	}
	snap, err := asofdb.SnapshotAsOf(db, at)
	if err != nil {
		fatal(err)
	}
	return snap
}

// recoverTable is the paper's §1 walkthrough: recreate the dropped table
// from the as-of catalog, then INSERT...SELECT from the snapshot.
func recoverTable(db *asofdb.DB, snap *asofdb.Snapshot, table string) error {
	tbl, err := snap.Table(table)
	if err != nil {
		return fmt.Errorf("table %q not found as of the snapshot: %w", table, err)
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := tx.CreateTable(tbl.Schema); err != nil {
		tx.Rollback()
		return fmt.Errorf("recreate: %w", err)
	}
	n := 0
	var insertErr error
	err = snap.Scan(table, nil, nil, func(r asofdb.Row) bool {
		if insertErr = tx.Insert(table, r); insertErr != nil {
			return false
		}
		n++
		return true
	})
	if err == nil {
		err = insertErr
	}
	if err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Printf("recovered %d rows into %s\n", n, table)
	return nil
}

func demo(db *asofdb.DB) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	schema := &asofdb.Schema{
		Name: "demo",
		Columns: []asofdb.Column{
			{Name: "id", Kind: asofdb.KindInt64},
			{Name: "note", Kind: asofdb.KindString},
		},
		KeyCols: 1,
	}
	if err := tx.CreateTable(schema); err != nil {
		tx.Rollback()
		return err
	}
	for i := 1; i <= 100; i++ {
		if err := tx.Insert("demo", asofdb.Row{
			asofdb.Int64(int64(i)), asofdb.String(fmt.Sprintf("row %d", i)),
		}); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Println("demo table created with 100 rows at", db.Now().Format(time.RFC3339))
	return nil
}

func need(args []string, n int) {
	if len(args) < n {
		fatal(fmt.Errorf("missing arguments"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asofctl:", err)
	os.Exit(1)
}
