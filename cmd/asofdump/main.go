// Command asofdump prints a database's transaction log in human-readable
// form: the per-transaction chains, per-page chains and the §4.2 extension
// records (preformat, CLR-with-undo, page images) that make as-of queries
// possible. Useful for studying how the mechanism works and for debugging.
//
// Usage:
//
//	asofdump -db DIR                  dump every record
//	asofdump -db DIR -page 7          only records of page 7 (its chain)
//	asofdump -db DIR -txn 12          only records of transaction 12
//	asofdump -db DIR -types commit    only the named record types
//	asofdump -db DIR -limit 50        stop after 50 records
//	asofdump -db DIR -stats           summary by type, object and SMO flag
//
// The -stats table has one row per record type × object (the root page id
// of the table or index the record belongs to; "-" for records of no object)
// × whether the record was logged inside a structure modification (wal.FlagNTA),
// largest first, with each row's share of the log and its payload bytes (old,
// new, extra: before-image, after-image and metadata; an update's are the old
// and new middle and its offset + key). Inserts and deletes with the flag are
// rows a B-tree split moved, not rows a statement wrote.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/wal"
)

func main() {
	var (
		dbdir = flag.String("db", "", "database directory (required)")
		pg    = flag.Int("page", -1, "filter: page id")
		txn   = flag.Int("txn", -1, "filter: transaction id")
		types = flag.String("types", "", "filter: comma-separated record types")
		limit = flag.Int("limit", 0, "stop after N records (0 = all)")
		stats = flag.Bool("stats", false, "print a summary by type, object and SMO flag only")
	)
	flag.Parse()
	if *dbdir == "" {
		flag.Usage()
		os.Exit(2)
	}
	m, err := wal.OpenStore(filepath.Join(*dbdir, "wal"), wal.Config{})
	if err != nil {
		fatal(err)
	}
	defer m.Close()

	wantType := map[string]bool{}
	for _, t := range strings.Split(*types, ",") {
		if t = strings.TrimSpace(t); t != "" {
			wantType[t] = true
		}
	}

	type group struct {
		typ string
		obj uint32
		smo bool
	}
	type agg struct {
		count, bytes    int
		old, new, extra int // payload bytes: Record.OldData, NewData, Extra
	}
	groups := map[group]*agg{}
	printed := 0
	err = m.Scan(1, func(rec *wal.Record) (bool, error) {
		if *pg >= 0 && rec.PageID != uint32(*pg) {
			return true, nil
		}
		if *txn >= 0 && rec.TxnID != uint64(*txn) {
			return true, nil
		}
		name := rec.Type.String()
		if len(wantType) > 0 && !wantType[name] {
			return true, nil
		}
		g := group{name, rec.ObjectID, rec.Flags&wal.FlagNTA != 0}
		a := groups[g]
		if a == nil {
			a = &agg{}
			groups[g] = a
		}
		a.count++
		a.bytes += rec.ApproxSize()
		a.old += len(rec.OldData)
		a.new += len(rec.NewData)
		a.extra += len(rec.Extra)
		if !*stats {
			printRecord(rec)
			printed++
			if *limit > 0 && printed >= *limit {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		fatal(err)
	}
	if *stats {
		keys := make([]group, 0, len(groups))
		total := agg{}
		for g, a := range groups {
			keys = append(keys, g)
			total.count += a.count
			total.bytes += a.bytes
			total.old += a.old
			total.new += a.new
			total.extra += a.extra
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := groups[keys[i]], groups[keys[j]]
			if a.bytes != b.bytes {
				return a.bytes > b.bytes
			}
			return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
		})
		const row = "%-12s %8s %4s %10d %14d %6.1f%% %12d %12d %12d\n"
		fmt.Printf("%-12s %8s %4s %10s %14s %7s %12s %12s %12s\n",
			"type", "object", "smo", "records", "bytes", "share", "old", "new", "extra")
		for _, g := range keys {
			a := groups[g]
			obj, smo := "-", ""
			if g.obj != 0 {
				obj = fmt.Sprint(g.obj)
			}
			if g.smo {
				smo = "smo"
			}
			fmt.Printf(row, g.typ, obj, smo, a.count, a.bytes,
				100*float64(a.bytes)/float64(total.bytes), a.old, a.new, a.extra)
		}
		fmt.Printf(row, "TOTAL", "", "", total.count, total.bytes, 100.0, total.old, total.new, total.extra)
	}
}

func printRecord(rec *wal.Record) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10d %-10s", rec.LSN, rec.Type)
	if rec.TxnID != 0 {
		fmt.Fprintf(&b, " txn=%-4d", rec.TxnID)
	}
	if rec.PageID != wal.NoPage {
		fmt.Fprintf(&b, " page=%-6d prevPage=%-10d", rec.PageID, rec.PrevPageLSN)
	}
	if rec.ObjectID != 0 {
		fmt.Fprintf(&b, " obj=%-4d", rec.ObjectID)
	}
	switch rec.Type {
	case wal.TypeInsert, wal.TypeDelete:
		fmt.Fprintf(&b, " slot=%-3d old=%dB new=%dB", rec.Slot, len(rec.OldData), len(rec.NewData))
	case wal.TypeUpdate:
		off, _, _ := rec.UpdateHead()
		key, _ := rec.RowKey()
		fmt.Fprintf(&b, " slot=%-3d off=%d old=%dB new=%dB key=%dB", rec.Slot, off, len(rec.OldData), len(rec.NewData), len(key))
	case wal.TypeCLR:
		fmt.Fprintf(&b, " compensates=%s undoNext=%d old=%dB", rec.CLRType, rec.UndoNextLSN, len(rec.OldData))
	case wal.TypePreformat:
		fmt.Fprintf(&b, " savedImage=%dB", len(rec.OldData))
	case wal.TypeImage:
		fmt.Fprintf(&b, " image=%dB prevImage=%d", len(rec.NewData), rec.PrevImageLSN)
	case wal.TypeCommit, wal.TypeBegin, wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
		if rec.WallClock != 0 {
			fmt.Fprintf(&b, " at=%s", time.Unix(0, rec.WallClock).UTC().Format(time.RFC3339Nano))
		}
	}
	fmt.Println(b.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asofdump:", err)
	os.Exit(1)
}
