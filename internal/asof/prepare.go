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
//     primary copy and, if it changed after the split, unwind it with
//     PreparePageAsOf and cache it in the side file.
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
	BatchPrepares  atomic.Int64 // batch rewinds (snapshot merged walks)
	BatchPages     atomic.Int64 // pages handed to those walks
	PagesShared    atomic.Int64 // snapshot pages served with nothing to undo
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
// It is the one-page call of PreparePagesAsOf.
func PreparePageAsOf(p *page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) error {
	return PreparePagesAsOf([]*page.Page{p}, asOf, log, stats)
}

// chainCursor is one page's position in a merged walk: the LSN of the next
// record to read for it, on its image chain (image set) or on its page chain.
type chainCursor struct {
	lsn   wal.LSN
	p     *page.Page
	image bool
}

// PreparePagesAsOf rewinds a set of distinct pages to asOf in one walk. Each
// page is unwound exactly as PreparePageAsOf unwinds it — every page's chain
// is its own — but the chains are merged by log position: a max-heap holds
// one cursor per page, the newest record among them is read and undone on
// its page, and that page's cursor moves to its predecessor. Reads therefore
// descend through the log once for the whole set, so a block that holds
// records of many of the pages is loaded once, not once per page, and the
// reader's readahead (the previous block, in the same I/O) is always the
// block the walk needs next.
//
// The chains are walked through a pooled wal.ChainReader: records decode in
// place into a reusable scratch record and block spans stay pinned in the
// reader, so the steady-state walk performs zero allocations per undone
// record and takes no shared lock per hop (the equivalence tests hold it to
// the per-record Manager.Read form it replaced).
//
// On error the pages are left partly rewound and must be discarded.
func PreparePagesAsOf(pages []*page.Page, asOf wal.LSN, log *wal.Manager, stats *Stats) error {
	var one [1]chainCursor // keeps the one-page call off the Go heap
	heap := one[:0]
	if len(pages) > 1 {
		heap = make([]chainCursor, 0, len(pages))
	}
	for _, p := range pages {
		cur := wal.LSN(p.PageLSN())
		if cur <= asOf {
			continue
		}
		if stats != nil {
			stats.PagesPrepared.Add(1)
		}
		// Fast path: the oldest full image with LSN >= asOf, found by
		// walking the image chain (newest first). An image logged after
		// this copy of the page was taken (snapshot copies) is ignored.
		if img := wal.LSN(p.LastImageLSN()); img > asOf && img <= cur {
			heap = append(heap, chainCursor{lsn: img, p: p, image: true})
		} else {
			heap = append(heap, chainCursor{lsn: cur, p: p})
		}
	}
	if len(heap) == 0 {
		return nil
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	rdr := log.ChainReader()
	defer rdr.Close()
	for len(heap) > 0 {
		c := &heap[0]
		rec, err := rdr.Read(c.lsn)
		if err != nil {
			return fmt.Errorf("asof: read %v: %w", c.lsn, err)
		}
		var next wal.LSN
		if c.image {
			next, err = stepImage(c, rec, asOf, stats)
		} else {
			next, err = stepUndo(c, rec, stats)
		}
		if err != nil {
			return err
		}
		if next > asOf {
			c.lsn = next
		} else {
			c.p.SetPageLSN(uint64(next))
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return nil
}

// stepImage consumes one record of c's image chain and returns the next LSN
// to read for the page. While an older image still at or after asOf exists
// the walk stays on the image chain; the oldest such image is restored —
// its stored content, whose embedded pageLSN equals the image record's
// PrevPageLSN, jumps the cursor past the entire log region after the image
// in one step — and the walk moves to the page chain below it. An image
// that is the page's newest record skips nothing: the page chain is walked
// from the top.
func stepImage(c *chainCursor, rec *wal.Record, asOf wal.LSN, stats *Stats) (wal.LSN, error) {
	if rec.Type != wal.TypeImage {
		return 0, fmt.Errorf("asof: image chain hit %v at %v", rec.Type, c.lsn)
	}
	if stats != nil {
		stats.ImageChainHops.Add(1)
	}
	if older := rec.PrevImageLSN; older != wal.NilLSN && older > asOf {
		if older >= c.lsn {
			return 0, fmt.Errorf("%w: image chain does not descend at %v (-> %v)", ErrChainBroken, c.lsn, older)
		}
		return older, nil
	}
	c.image = false
	pageLSN := wal.LSN(c.p.PageLSN())
	if c.lsn >= pageLSN {
		return pageLSN, nil
	}
	// The restored image is the page as of its PrevPageLSN; a link at or
	// above the image would send the walk back up the page chain to undo
	// records newer than the content it just restored.
	if rec.PrevPageLSN >= c.lsn {
		return 0, fmt.Errorf("%w: image does not descend at %v (-> %v)", ErrChainBroken, c.lsn, rec.PrevPageLSN)
	}
	if len(rec.NewData) != page.Size {
		return 0, fmt.Errorf("%w: page image at %v is %d bytes", ErrChainBroken, c.lsn, len(rec.NewData))
	}
	c.p.CopyFrom(rec.NewData)
	if stats != nil {
		stats.ImageRestores.Add(1)
	}
	return rec.PrevPageLSN, nil
}

// stepUndo undoes one record of c's page chain on its page and returns the
// LSN of the record before it.
func stepUndo(c *chainCursor, rec *wal.Record, stats *Stats) (wal.LSN, error) {
	if err := wal.Undo(c.p, rec); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrChainBroken, err)
	}
	if stats != nil {
		stats.RecordsUndone.Add(1)
	}
	next := rec.PrevPageLSN
	if rec.Type == wal.TypePreformat {
		// The restored prior image carries its own pageLSN; trust it
		// (it equals rec.PrevPageLSN by construction).
		next = wal.LSN(c.p.PageLSN())
	}
	if next >= c.lsn && next != wal.NilLSN {
		return 0, fmt.Errorf("%w: chain does not descend at %v (-> %v)", ErrChainBroken, c.lsn, next)
	}
	return next, nil
}

// siftDown restores the max-heap order (by lsn) below position i.
func siftDown(h []chainCursor, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && h[l].lsn > h[big].lsn {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r].lsn > h[big].lsn {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
