// Package asof implements the paper's primary contribution: transaction-log
// based application error recovery and point-in-time query.
//
// Its two halves are:
//
//   - PreparePageAsOf (§4): page-oriented physical undo — starting from the
//     current copy of a page, walk the per-page log chain backwards and undo
//     modifications until the page is as of a target LSN. Each page is
//     unwound independently, so previous versions are generated only for
//     the data a query actually touches.
//
//   - As-of database snapshots (§5): a read-only, transactionally
//     consistent view of the database as of an arbitrary wall-clock time in
//     the past (within the retention period), mounted as a database whose
//     page reads go through the §5.3 protocol: side-file hit, else read the
//     primary copy, unwind it with PreparePageAsOf, and cache it in the
//     side file.
package asof

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/storage/page"
	"repro/internal/wal"
)

// Stats counts the work done by PreparePageAsOf calls (Figure 11 reports
// the undo log I/Os; the log manager's UndoReads counter supplies those).
type Stats struct {
	PagesPrepared  atomic.Int64 // pages that needed at least one undo step
	RecordsUndone  atomic.Int64 // individual log records undone
	ImageRestores  atomic.Int64 // full page images restored (skip fast path)
	ImageChainHops atomic.Int64 // image-chain records examined
}

// ErrChainBroken is returned when the per-page chain cannot reach the
// target LSN — in practice only when an ablation switch removed undo
// information the paper's extensions would have logged (§4.2).
var ErrChainBroken = errors.New("asof: page log chain cannot reach target LSN")

// PreparePageAsOf implements the paper's primitive (Figure 3): it takes the
// current copy of a page and applies the transaction log to undo
// modifications until the page is as of asOf. The page is stamped with the
// LSN of the newest surviving modification, so the call is idempotent.
//
// When full page images are logged every Nth modification (§6.1), the image
// chain is walked first: restoring the oldest image at or after asOf skips
// the (possibly long) log region after it, leaving at most N-1 individual
// records to undo.
//
// The chain is walked through a pooled wal.ChainReader: records decode in
// place into a reusable scratch record and block spans stay pinned in the
// reader, so the steady-state walk performs zero allocations per undone
// record and takes no shared lock per hop (see PreparePageAsOfBaseline for
// the per-record Manager.Read form this replaced).
func PreparePageAsOf(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) error {
	if wal.LSN(p.PageLSN()) <= asOf {
		return nil
	}
	rdr := log.ChainReader()
	defer rdr.Close()
	return preparePageAsOf(p, asOf, rdr, stats)
}

// preparePageAsOf is the chain-walk body, factored so snapshot machinery
// holding a long-lived reader (e.g. background undo) can reuse it.
func preparePageAsOf(p *page.Page, asOf wal.LSN, rdr *wal.ChainReader, stats *Stats) error {
	cur := wal.LSN(p.PageLSN())
	if cur <= asOf {
		return nil
	}
	if stats != nil {
		stats.PagesPrepared.Add(1)
	}

	// Fast path: find the oldest full image with LSN >= asOf by walking
	// the image chain (newest first). Restoring its stored content (whose
	// embedded pageLSN equals the image record's PrevPageLSN) jumps the
	// cursor past the entire log region after the image in one step.
	if imgLSN, err := oldestImageAtOrAfter(p, asOf, rdr, stats); err != nil {
		return err
	} else if imgLSN != wal.NilLSN {
		// Re-read the winning image: the scratch record the chain walk
		// returned has been overwritten by later hops.
		img, err := rdr.Read(imgLSN)
		if err != nil {
			return fmt.Errorf("asof: read image %v: %w", imgLSN, err)
		}
		p.CopyFrom(img.NewData)
		if stats != nil {
			stats.ImageRestores.Add(1)
		}
		cur = img.PrevPageLSN
	}

	for cur > asOf {
		rec, err := rdr.Read(cur)
		if err != nil {
			return fmt.Errorf("asof: read %v: %w", cur, err)
		}
		if err := wal.Undo(p, rec); err != nil {
			return fmt.Errorf("%w: %v", ErrChainBroken, err)
		}
		if stats != nil {
			stats.RecordsUndone.Add(1)
		}
		next := rec.PrevPageLSN
		if rec.Type == wal.TypePreformat {
			// The restored prior image carries its own pageLSN; trust it
			// (it equals rec.PrevPageLSN by construction).
			next = wal.LSN(p.PageLSN())
		}
		if next >= cur && next != wal.NilLSN {
			return fmt.Errorf("%w: chain does not descend at %v (-> %v)", ErrChainBroken, cur, next)
		}
		cur = next
	}
	p.SetPageLSN(uint64(cur))
	return nil
}

// oldestImageAtOrAfter walks the page's image chain backwards and returns
// the LSN of the oldest full-page-image record still >= asOf, or NilLSN if
// no image helps (all images predate asOf, or none exist).
func oldestImageAtOrAfter(p *page.Page, asOf wal.LSN, rdr *wal.ChainReader, stats *Stats) (wal.LSN, error) {
	candidate := wal.NilLSN
	cur := wal.LSN(p.LastImageLSN())
	pageLSN := wal.LSN(p.PageLSN())
	for cur != wal.NilLSN && cur > asOf {
		if cur > pageLSN {
			// Image logged after this copy of the page was taken (can
			// happen on snapshot copies); ignore and stop.
			break
		}
		rec, err := rdr.Read(cur)
		if err != nil {
			return wal.NilLSN, fmt.Errorf("asof: read image %v: %w", cur, err)
		}
		if rec.Type != wal.TypeImage {
			return wal.NilLSN, fmt.Errorf("asof: image chain hit %v at %v", rec.Type, cur)
		}
		if stats != nil {
			stats.ImageChainHops.Add(1)
		}
		candidate = cur
		cur = rec.PrevImageLSN
	}
	// Only worthwhile if the image actually skips records: the candidate
	// must be older than the current page state.
	if candidate != wal.NilLSN && candidate < pageLSN {
		return candidate, nil
	}
	return wal.NilLSN, nil
}

// PreparePageAsOfBaseline is the pre-ChainReader implementation: one
// locked, allocating Manager.Read per chain record. It is retained as the
// A/B baseline arm for the read-path experiment (exp.AsOfReadPath) and as
// the reference implementation the chain-reader equivalence tests compare
// against. Semantics are identical to PreparePageAsOf.
func PreparePageAsOfBaseline(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) error {
	cur := wal.LSN(p.PageLSN())
	if cur <= asOf {
		return nil
	}
	if stats != nil {
		stats.PagesPrepared.Add(1)
	}
	if img, err := oldestImageAtOrAfterBaseline(p, asOf, log, stats); err != nil {
		return err
	} else if img != nil {
		p.CopyFrom(img.NewData)
		if stats != nil {
			stats.ImageRestores.Add(1)
		}
		cur = img.PrevPageLSN
	}
	for cur > asOf {
		rec, err := log.Read(cur)
		if err != nil {
			return fmt.Errorf("asof: read %v: %w", cur, err)
		}
		if err := wal.Undo(p, rec); err != nil {
			return fmt.Errorf("%w: %v", ErrChainBroken, err)
		}
		if stats != nil {
			stats.RecordsUndone.Add(1)
		}
		next := rec.PrevPageLSN
		if rec.Type == wal.TypePreformat {
			next = wal.LSN(p.PageLSN())
		}
		if next >= cur && next != wal.NilLSN {
			return fmt.Errorf("%w: chain does not descend at %v (-> %v)", ErrChainBroken, cur, next)
		}
		cur = next
	}
	p.SetPageLSN(uint64(cur))
	return nil
}

func oldestImageAtOrAfterBaseline(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) (*wal.Record, error) {
	var candidate *wal.Record
	cur := wal.LSN(p.LastImageLSN())
	pageLSN := wal.LSN(p.PageLSN())
	for cur != wal.NilLSN && cur > asOf {
		if cur > pageLSN {
			break
		}
		rec, err := log.Read(cur)
		if err != nil {
			return nil, fmt.Errorf("asof: read image %v: %w", cur, err)
		}
		if rec.Type != wal.TypeImage {
			return nil, fmt.Errorf("asof: image chain hit %v at %v", rec.Type, cur)
		}
		if stats != nil {
			stats.ImageChainHops.Add(1)
		}
		candidate = rec
		cur = rec.PrevImageLSN
	}
	if candidate != nil && candidate.LSN < wal.LSN(p.PageLSN()) {
		return candidate, nil
	}
	return nil, nil
}
