package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/wal"
)

// timelineInfo is the (timeline, fork-history) identity a node presents in
// the subscribe and hello handshakes. A subscriber presents its *effective*
// identity — the timeline owning the last byte it actually holds plus the
// history below it (wal.TimelineHistory.TruncateAt) — so a node that
// adopted a promoted lineage but never ingested a post-fork byte can still
// legally follow either branch. A server presents its full adopted lineage.
type timelineInfo struct {
	TLI     wal.TimelineID
	History wal.TimelineHistory
}

func timelineInfoSize(ti timelineInfo) int { return 8 + 12*len(ti.History) }

// appendTimelineInfo appends the wire form: tli u32 | nForks u32 |
// nForks × (tli u32, end u64).
func appendTimelineInfo(buf []byte, ti timelineInfo) []byte {
	var tmp [12]byte
	binary.LittleEndian.PutUint32(tmp[0:], uint32(ti.TLI))
	binary.LittleEndian.PutUint32(tmp[4:], uint32(len(ti.History)))
	buf = append(buf, tmp[:8]...)
	for _, f := range ti.History {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(f.TLI))
		binary.LittleEndian.PutUint64(tmp[4:], uint64(f.End))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// decodeTimelineInfo parses a timelineInfo that fills buf exactly. An
// identity with no timeline (TLI 0) is refused: every node is on timeline 1
// or later.
func decodeTimelineInfo(buf []byte) (timelineInfo, error) {
	if len(buf) < 8 {
		return timelineInfo{}, fmt.Errorf("repl: timeline info is %d bytes", len(buf))
	}
	ti := timelineInfo{TLI: wal.TimelineID(binary.LittleEndian.Uint32(buf))}
	if ti.TLI == 0 {
		return timelineInfo{}, errors.New("repl: timeline info names timeline 0")
	}
	n := uint64(binary.LittleEndian.Uint32(buf[4:]))
	if uint64(len(buf)) != 8+12*n {
		return timelineInfo{}, fmt.Errorf("repl: timeline info %d bytes for %d forks", len(buf), n)
	}
	for i := range int(n) {
		ti.History = append(ti.History, wal.TimelineFork{
			TLI: wal.TimelineID(binary.LittleEndian.Uint32(buf[8+12*i:])),
			End: wal.LSN(binary.LittleEndian.Uint64(buf[12+12*i:])),
		})
	}
	return ti, nil
}

// nodeIdentityAt computes a node's effective subscriber identity for a log
// that ends at end: the adopted lineage truncated at the last byte held.
func nodeIdentityAt(db *engine.DB, end wal.LSN) timelineInfo {
	tli, hist := db.Timeline()
	et, eh := hist.TruncateAt(tli, end)
	return timelineInfo{TLI: et, History: eh}
}

// ErrTimelineDiverged marks a mechanical timeline-history refusal: the
// subscriber's position is not an ancestor of the server's lineage, so no
// byte the server could ship would extend the subscriber's log. Errors
// carrying it also match ErrSubscriptionRejected — retrying is pointless;
// the node must be re-pointed at a server still on its own branch, or
// reseeded from a backup of the new one.
var ErrTimelineDiverged = errors.New("repl: subscriber position is not an ancestor of the server's timeline history")

// timelineRefusal is the concrete error for ancestry failures; its message
// is the precise, actionable text shipped to the subscriber.
type timelineRefusal struct{ msg string }

func (e *timelineRefusal) Error() string { return e.msg }

func (e *timelineRefusal) Is(target error) bool {
	return target == ErrTimelineDiverged || target == ErrSubscriptionRejected
}

// checkAncestry decides mechanically whether a subscriber whose log ends at
// from-1 with effective identity sub may stream from a server on timeline
// srvTLI with history srvHist. Admissible iff the subscriber's position
// lies on (an ancestor of) the server's lineage:
//
//   - same timeline: always (being behind the server's log end is the
//     ordinary catch-up / parked-standby case, handled elsewhere);
//   - an ancestor timeline in srvHist ending at E: iff from ≤ E+1, i.e.
//     the subscriber holds no byte past the fork;
//   - anything else — a timeline the server never heard of, a fork point
//     recorded differently on the two nodes — is a divergence no amount of
//     shipping can repair, refused with the reason and the remedy.
func checkAncestry(srvTLI wal.TimelineID, srvHist wal.TimelineHistory, sub timelineInfo, from wal.LSN) error {
	srvLineage := wal.DescribeLineage(srvTLI, srvHist)

	// Fork points the two lineages both record must agree exactly.
	for i, f := range sub.History {
		if i >= len(srvHist) {
			break
		}
		if s := srvHist[i]; s.TLI != f.TLI || s.End != f.End {
			return &timelineRefusal{msg: fmt.Sprintf(
				"repl: fork histories diverge at entry %d: subscriber recorded timeline %d ending at %d, server recorded timeline %d ending at %d (server is %s): the nodes followed different promotions and their logs cannot be spliced; reseed the subscriber from a backup of the server",
				i, f.TLI, uint64(f.End), s.TLI, uint64(s.End), srvLineage)}
		}
	}

	switch {
	case sub.TLI == srvTLI:
		if len(sub.History) != len(srvHist) {
			return &timelineRefusal{msg: fmt.Sprintf(
				"repl: subscriber and server are both on timeline %d but with different fork histories (subscriber %s, server %s): sibling promotions cannot be spliced; reseed the subscriber from a backup of the server",
				srvTLI, sub.History, srvHist)}
		}
		return nil
	case sub.TLI > srvTLI:
		return &timelineRefusal{msg: fmt.Sprintf(
			"repl: subscriber is on timeline %d, ahead of the server's %s: it followed a promotion the server never saw; re-point it at a node on timeline %d or reseed it from a backup of the server",
			sub.TLI, srvLineage, sub.TLI)}
	}

	end, ok := srvHist.EndOf(sub.TLI)
	if !ok {
		return &timelineRefusal{msg: fmt.Sprintf(
			"repl: subscriber timeline %d is not an ancestor of the server's %s: the lineages share no fork at that timeline; reseed the subscriber from a backup of the server",
			sub.TLI, srvLineage)}
	}
	if from > end+1 {
		return &timelineRefusal{msg: fmt.Sprintf(
			"repl: subscriber log ends at %d on timeline %d, but the server's %s forked off timeline %d at %d: the subscriber is %d bytes ahead of the fork and those bytes exist on no surviving branch; re-point it at a node still on timeline %d or reseed it from a backup of the server",
			uint64(from-1), sub.TLI, srvLineage, sub.TLI, uint64(end), uint64(from-1-end), sub.TLI)}
	}
	return nil
}
