package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies a call the harness makes into a layer. Spans are
// recorded only from this package, around those calls; spans inside the
// engine are a later issue.
type spanName uint8

const (
	// Harness spans: one workload operation and its parts. Their self time
	// is the harness's own work (input generation, oracle comparisons).
	spOp      spanName = iota // one TPC-C transaction
	spSession                 // one as-of session; arg = sweep index
	spRound                   // asof_beside_writes: 100 transactions + one session
	spRecover                 // crash_recovery: open + first query
	// Layer spans: one call into a layer, always a direct child of a
	// harness span.
	spBegin
	spNewOrder
	spPayment
	spOrderStatus
	spDelivery
	spStockLevel
	spCommit
	spRollback
	spInvalidate
	spMount
	spQueryCold
	spQueryWarm
	spSnapClose
	spOpen
	spFirstQuery
	spCheckpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:          "op.txn",
	spSession:     "op.asof_session",
	spRound:       "op.round",
	spRecover:     "op.recover",
	spBegin:       "db.Begin",
	spNewOrder:    "tpcc.NewOrder",
	spPayment:     "tpcc.Payment",
	spOrderStatus: "tpcc.OrderStatus",
	spDelivery:    "tpcc.Delivery",
	spStockLevel:  "tpcc.StockLevel",
	spCommit:      "tx.Commit",
	spRollback:    "tx.Rollback",
	spInvalidate:  "wal.InvalidateCache",
	spMount:       "asof.CreateSnapshot",
	spQueryCold:   "asof.StockLevel.cold",
	spQueryWarm:   "asof.StockLevel.warm",
	spSnapClose:   "Snapshot.Close",
	spOpen:        "engine.Open",
	spFirstQuery:  "recovery.first.StockLevel",
	spCheckpoint:  "db.Checkpoint",
}

func (n spanName) harness() bool { return n <= spRecover }

// span is one timed call. parent is the index of the enclosing span (-1 for
// none); op identifies the workload operation all spans of one request
// share. arg carries a per-span tag: the sweep index of an as-of op, or 1 on
// a commit during which the engine took a checkpoint.
type span struct {
	name       spanName
	arg        int32
	parent, op int32
	start, end int64 // ns since tracer start
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so both runs execute the same
// harness code.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
	op    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	if t.cur == -1 {
		t.op++ // a root span starts a new operation
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: t.op, start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) { t.endArg(id, 0) }

func (t *tracer) endArg(id, arg int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	s.arg = arg
	t.cur = s.parent
}

// mark returns the current span count, so a caller can later look only at
// the spans of the measured phase.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes returns, per span from index `from` on, its duration minus the
// part of that interval its child spans cover.
func (t *tracer) selfTimes(from int) []int64 {
	self := make([]int64, len(t.spans)-from)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[i-from] += s.end - s.start
		if p := int(s.parent); p >= from {
			self[p-from] -= s.end - s.start
		}
	}
	return self
}

// write dumps the spans as JSON: a name table plus one compact array per
// span [name, start_ns, end_ns, parent, op, arg].
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"fields":["name","start_ns","end_ns","parent","op","arg"],"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, `],"spans":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d,%d]", s.name, s.start, s.end, s.parent, s.op, s.arg)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
