package engine

import (
	"sort"

	"repro/internal/wal"
)

// AnalysisMark is an in-memory analysis seed: the engine's complete
// active-transaction table captured at a known log position, without the
// page flushing a full checkpoint performs. Snapshot resolution
// (asof.resolveAt) seeds its §5.2 analysis pass from the newest mark whose
// capture completed at or before the SplitLSN and scans only
// [Begin, split], cutting the analysis cost from O(checkpoint interval) to
// O(mark interval) — the piece of snapshot-creation cost the sparse
// time→LSN index alone cannot remove.
//
// Marks are volatile: they are not persisted, and after a restart
// resolution falls back to checkpoint-seeded analysis until new marks
// accumulate.
type AnalysisMark struct {
	// Begin is the log position before the capture began. The seed is the
	// exact ATT at some instant τ with Begin ≤ τ ≤ End: replaying
	// [Begin, split] over it repairs it to the exact ATT at any
	// split ≥ End, exactly as checkpoint-seeded analysis repairs the
	// mid-checkpoint ATT snapshot.
	Begin wal.LSN
	// End is the log position after the capture completed; the mark may
	// seed analysis only for splits at or past End.
	End wal.LSN
	// ATT is the captured table. Shared storage — callers must not mutate.
	ATT []wal.ATTEntry
}

// attMarkEvery is the log-volume spacing between marks: every 256 KiB of
// log, one commitGate capture (~microseconds) bounds every subsequent
// snapshot-resolution scan to at most ~256 KiB.
const attMarkEvery = 256 << 10

// maxATTMarks bounds mark memory; at attMarkEvery spacing, 4096 marks
// cover 1 GiB of recent log. Older splits fall back to checkpoint seeds.
const maxATTMarks = 4096

// maybeATTMark captures an analysis mark when enough log has accumulated
// since the last one. Called on the commit path (like maybeAutoCheckpoint);
// off the sampling cadence it is two atomic-ish checks.
func (db *DB) maybeATTMark() {
	size := wal.LSN(db.log.Size())
	db.mu.Lock()
	due := size >= db.lastATTMarkAt+attMarkEvery
	if due {
		db.lastATTMarkAt = size
	}
	db.mu.Unlock()
	if !due {
		return
	}
	begin := db.log.NextLSN()
	att := db.activeATT()
	end := db.log.NextLSN()
	db.mu.Lock()
	db.addATTMarkLocked(AnalysisMark{Begin: begin, End: end, ATT: att})
	db.mu.Unlock()
}

// NoteAnalysisMark gives a standby the primary's mark cadence, counted in
// applied log bytes: once applied is attMarkEvery past the last mark it
// installs st's in-flight table — the standby's incremental analysis state,
// exact at applied — so snapshot resolution on the standby runs the same
// O(mark interval) analysis scans as on the primary.
func (db *DB) NoteAnalysisMark(applied wal.LSN, st *RecoveryState) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if applied < db.lastATTMarkAt+attMarkEvery {
		return
	}
	db.lastATTMarkAt = applied
	db.addATTMarkLocked(AnalysisMark{Begin: applied + 1, End: applied + 1, ATT: st.Inflight()})
}

// addATTMarkLocked appends m in strict (Begin, End) order so the slice stays
// sorted for the binary searches in AnalysisMarkAtOrBefore and
// pruneATTMarks: two committers can race past maybeATTMark's due-check and
// capture overlapping marks, and the one losing the race is dropped — the
// one that won covers a later window. Caller holds db.mu.
func (db *DB) addATTMarkLocked(m AnalysisMark) {
	if n := len(db.attMarks); n > 0 &&
		(m.Begin < db.attMarks[n-1].Begin || m.End <= db.attMarks[n-1].End) {
		return
	}
	db.metrics.attMarks.Inc()
	db.attMarks = append(db.attMarks, m)
	if len(db.attMarks) > maxATTMarks {
		db.attMarks = append(db.attMarks[:0:0], db.attMarks[len(db.attMarks)-maxATTMarks/2:]...)
	}
}

// AnalysisMarkAtOrBefore returns the newest mark whose capture completed
// at or before split, if any.
func (db *DB) AnalysisMarkAtOrBefore(split wal.LSN) (AnalysisMark, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := sort.Search(len(db.attMarks), func(i int) bool {
		return db.attMarks[i].End > split
	})
	if i == 0 {
		return AnalysisMark{}, false
	}
	return db.attMarks[i-1], true
}

// pruneATTMarks drops marks whose scan window fell below the truncation
// point (their [Begin, split] replays would read truncated log).
func (db *DB) pruneATTMarks(cut wal.LSN) {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := 0
	for i < len(db.attMarks) && db.attMarks[i].Begin < cut {
		i++
	}
	if i > 0 {
		db.attMarks = append(db.attMarks[:0:0], db.attMarks[i:]...)
	}
}
