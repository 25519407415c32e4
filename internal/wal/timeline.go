package wal

import (
	"fmt"
	"strings"
)

// TimelineID names one branch of log history, Postgres-style. A freshly
// created database is timeline 1; every promotion forks a new timeline
// (old+1) and records where the old one ended. Timeline 0 is reserved: no
// boot record, checkpoint or handshake names it.
type TimelineID uint32

// TimelineFork records where an ancestor timeline ended in a node's
// lineage: TLI owns every log byte up to and including End; its successor
// (the next entry's TLI, or the node's current timeline after the last
// entry) owns bytes from End+1.
type TimelineFork struct {
	TLI TimelineID
	End LSN
}

// TimelineHistory is the ordered list of ancestor forks behind a node's
// current timeline, oldest first. Together with the current TimelineID it
// maps every LSN in the node's log to the timeline that wrote it. The LSN
// address space is shared across timelines — a promotion does not restart
// numbering, it only changes which branch owns bytes past the fork — so
// shipping stays purely byte-positional and the history is pure admission
// control.
type TimelineHistory []TimelineFork

// Clone returns an independent copy (nil stays nil).
func (h TimelineHistory) Clone() TimelineHistory {
	if h == nil {
		return nil
	}
	return append(TimelineHistory(nil), h...)
}

// EndOf returns the last LSN the lineage attributes to ancestor tli.
func (h TimelineHistory) EndOf(tli TimelineID) (LSN, bool) {
	for _, f := range h {
		if f.TLI == tli {
			return f.End, true
		}
	}
	return NilLSN, false
}

// TruncateAt computes the effective identity of a log that ends at end
// (holds bytes [1, end]) under this lineage: the timeline owning the last
// held byte plus the history strictly below it. A node that adopted a
// promoted upstream's lineage but whose log still stops at or before the
// fork is, for admission purposes, a node on the ancestor timeline — this
// is what lets it legally follow either branch.
func (h TimelineHistory) TruncateAt(current TimelineID, end LSN) (TimelineID, TimelineHistory) {
	for i, f := range h {
		if end <= f.End {
			return f.TLI, h[:i].Clone()
		}
	}
	return current, h.Clone()
}

// Fork returns the lineage a node on timeline current with this history
// takes when it is promoted with its log ending at end: its effective
// identity there (TruncateAt) forks at end, under the id after current. A
// node that adopted a newer lineage but holds no byte past its last fork
// thus forks from the ancestor owning its log end, and the fork points never
// go backwards.
func (h TimelineHistory) Fork(current TimelineID, end LSN) (TimelineID, TimelineHistory) {
	owner, below := h.TruncateAt(current, end)
	return current + 1, append(below, TimelineFork{TLI: owner, End: end})
}

// Validate checks structural sanity for a node on timeline current:
// strictly increasing timeline ids and fork points, ending below current.
func (h TimelineHistory) Validate(current TimelineID) error {
	if current == 0 {
		return fmt.Errorf("wal: timeline id 0 is reserved")
	}
	prevTLI, prevEnd := TimelineID(0), NilLSN
	for _, f := range h {
		if f.TLI <= prevTLI {
			return fmt.Errorf("wal: timeline history not increasing: %d after %d", f.TLI, prevTLI)
		}
		if f.TLI >= current {
			return fmt.Errorf("wal: timeline history entry %d not below current timeline %d", f.TLI, current)
		}
		if prevTLI != 0 && f.End < prevEnd {
			return fmt.Errorf("wal: timeline fork points not increasing: %v after %v", f.End, prevEnd)
		}
		prevTLI, prevEnd = f.TLI, f.End
	}
	return nil
}

// String renders the lineage as "1@1024→2@4096→3" (fork LSNs between
// branches), for refusal messages and status output.
func (h TimelineHistory) String() string {
	if len(h) == 0 {
		return "(root)"
	}
	var b strings.Builder
	for _, f := range h {
		fmt.Fprintf(&b, "%d@%d→", f.TLI, uint64(f.End))
	}
	b.WriteString("…")
	return b.String()
}

// DescribeLineage renders a full (current, history) identity, e.g.
// "timeline 3 (history 1@1024→2@4096→3)".
func DescribeLineage(current TimelineID, h TimelineHistory) string {
	if len(h) == 0 {
		return fmt.Sprintf("timeline %d", current)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %d (history ", current)
	for _, f := range h {
		fmt.Fprintf(&b, "%d@%d→", f.TLI, uint64(f.End))
	}
	fmt.Fprintf(&b, "%d)", current)
	return b.String()
}
