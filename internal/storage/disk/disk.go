// Package disk implements the file management subsystem (§2.1): page-granular
// I/O against the database file, with every operation charged to a simulated
// media device. It also provides the sequential whole-file primitives used
// by full backups and restores (§6.2's baseline).
package disk

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/storage/media"
	"repro/internal/storage/page"
)

// ErrPastEOF is returned when reading a page beyond the current file size.
var ErrPastEOF = errors.New("disk: page beyond end of file")

// File is a page-addressed database file.
type File struct {
	mu    sync.Mutex // guards grow
	f     *os.File
	dev   *media.Device
	pages uint32

	runMu sync.Mutex // guards run
	run   []byte     // WriteRun's and ReadRun's staging buffer, reused across runs
}

// Open opens or creates a page file. dev may be nil (uncharged I/O).
func Open(path string, dev *media.Device) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat: %w", err)
	}
	if st.Size()%page.Size != 0 {
		f.Close()
		return nil, fmt.Errorf("disk: %s size %d not page aligned", path, st.Size())
	}
	return &File{f: f, dev: dev, pages: uint32(st.Size() / page.Size)}, nil
}

// Close closes the file.
func (d *File) Close() error { return d.f.Close() }

// Sync flushes the file to stable storage.
func (d *File) Sync() error { return d.f.Sync() }

// PageCount returns the number of pages currently in the file.
func (d *File) PageCount() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Device returns the media device charged for this file's I/O.
func (d *File) Device() *media.Device { return d.dev }

// ReadPage reads page id into buf (which must be page.Size bytes),
// charging one random read. Reading a page past EOF fails.
func (d *File) ReadPage(id page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: read buffer is %d bytes", len(buf))
	}
	d.mu.Lock()
	pages := d.pages
	d.mu.Unlock()
	if uint32(id) >= pages {
		return fmt.Errorf("%w: page %d of %d", ErrPastEOF, id, pages)
	}
	if _, err := d.f.ReadAt(buf, int64(id)*page.Size); err != nil {
		return fmt.Errorf("disk: read page %d: %w", id, err)
	}
	d.dev.ChargeRead(page.Size, false)
	return nil
}

// WritePage writes buf to page id, growing the file if needed, charging one
// random write.
func (d *File) WritePage(id page.ID, buf []byte) error {
	return d.writePage(id, buf, false)
}

// WritePageSeq writes buf to page id charged as sequential I/O — for
// backup/restore streams that write pages in order.
func (d *File) WritePageSeq(id page.ID, buf []byte) error {
	return d.writePage(id, buf, true)
}

func (d *File) writePage(id page.ID, buf []byte, sequential bool) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: write buffer is %d bytes", len(buf))
	}
	if _, err := d.f.WriteAt(buf, int64(id)*page.Size); err != nil {
		return fmt.Errorf("disk: write page %d: %w", id, err)
	}
	d.grow(uint32(id) + 1)
	d.dev.ChargeWrite(page.Size, sequential)
	return nil
}

// WriteRun writes bufs to the consecutive pages first, first+1, ... with
// one device write, growing the file if needed, charging one random write
// of the whole run. The pages of a longer run are staged in a buffer reused
// across runs.
func (d *File) WriteRun(first page.ID, bufs [][]byte) error {
	switch len(bufs) {
	case 0:
		return nil
	case 1:
		return d.WritePage(first, bufs[0])
	}
	for _, b := range bufs {
		if len(b) != page.Size {
			return fmt.Errorf("disk: write buffer is %d bytes", len(b))
		}
	}
	d.runMu.Lock()
	defer d.runMu.Unlock()
	run := stage(&d.run, bufs)
	if _, err := d.f.WriteAt(run, int64(first)*page.Size); err != nil {
		return fmt.Errorf("disk: write pages %d..%d: %w", first, int(first)+len(bufs)-1, err)
	}
	d.grow(uint32(first) + uint32(len(bufs)))
	d.dev.ChargeWrite(int64(len(run)), false)
	return nil
}

// ReadRun reads the consecutive pages first, first+1, ... into bufs with one
// device read, charging one random read of the whole run: WriteRun's twin.
// The run is read through the same staging buffer. A run reaching past the
// end of the file fails with ErrPastEOF and reads nothing.
func (d *File) ReadRun(first page.ID, bufs [][]byte) error {
	switch len(bufs) {
	case 0:
		return nil
	case 1:
		return d.ReadPage(first, bufs[0])
	}
	for _, b := range bufs {
		if len(b) != page.Size {
			return fmt.Errorf("disk: read buffer is %d bytes", len(b))
		}
	}
	pages := d.PageCount()
	if last := uint32(first) + uint32(len(bufs)); last > pages {
		return fmt.Errorf("%w: pages %d..%d of %d", ErrPastEOF, first, last-1, pages)
	}
	d.runMu.Lock()
	defer d.runMu.Unlock()
	run := sized(&d.run, len(bufs))
	if _, err := d.f.ReadAt(run, int64(first)*page.Size); err != nil {
		return fmt.Errorf("disk: read pages %d..%d: %w", first, int(first)+len(bufs)-1, err)
	}
	for i, b := range bufs {
		copy(b, run[i*page.Size:])
	}
	d.dev.ChargeRead(int64(len(run)), false)
	return nil
}

// stage copies bufs end to end into *run and returns the staged bytes.
func stage(run *[]byte, bufs [][]byte) []byte {
	b := sized(run, len(bufs))
	for i, buf := range bufs {
		copy(b[i*page.Size:], buf)
	}
	return b
}

// minStage is the fewest pages the staging buffer is allocated for: the
// longest run a buffer pool reads ahead (128 KiB), so the runs of growing
// length up to it share one allocation.
const minStage = 16

// sized returns *run cut to n pages, reallocating it only when it is too
// short, to exactly max(n, minStage) pages: growing by append would leave a
// trail of discarded copies.
func sized(run *[]byte, n int) []byte {
	if cap(*run) < n*page.Size {
		*run = make([]byte, max(n, minStage)*page.Size)
	}
	return (*run)[:n*page.Size]
}

// grow records that the file now holds at least n pages. Writers call it
// only after the write succeeded, so PageCount never claims a page the
// file does not hold and a read past it fails with ErrPastEOF.
func (d *File) grow(n uint32) {
	d.mu.Lock()
	if n > d.pages {
		d.pages = n
	}
	d.mu.Unlock()
}

// Ensure grows the file (with zero pages) so that it contains at least
// n pages. Used when formatting a new database.
func (d *File) Ensure(n uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pages >= n {
		return nil
	}
	if err := d.f.Truncate(int64(n) * page.Size); err != nil {
		return fmt.Errorf("disk: grow to %d pages: %w", n, err)
	}
	d.pages = n
	return nil
}

// SequentialRead streams every page of the file in order, calling fn with
// the page id and buffer. The transfer is charged as sequential I/O — this
// is the access pattern of taking a full backup.
func (d *File) SequentialRead(fn func(id page.ID, buf []byte) error) error {
	d.mu.Lock()
	pages := d.pages
	d.mu.Unlock()
	buf := make([]byte, page.Size)
	for i := uint32(0); i < pages; i++ {
		n, err := d.f.ReadAt(buf, int64(i)*page.Size)
		if err != nil && !(errors.Is(err, io.EOF) && n == page.Size) {
			return fmt.Errorf("disk: sequential read page %d: %w", i, err)
		}
		d.dev.ChargeRead(page.Size, true)
		if err := fn(page.ID(i), buf); err != nil {
			return err
		}
	}
	return nil
}

// SequentialWrite appends pages in order from a reader function, charged as
// sequential I/O — the access pattern of restoring a full backup. fn returns
// io.EOF when the stream ends.
func (d *File) SequentialWrite(fn func(buf []byte) error) error {
	buf := make([]byte, page.Size)
	id := page.ID(0)
	for {
		err := fn(buf)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := d.f.WriteAt(buf, int64(id)*page.Size); err != nil {
			return fmt.Errorf("disk: sequential write page %d: %w", id, err)
		}
		d.dev.ChargeWrite(page.Size, true)
		d.grow(uint32(id) + 1)
		id++
	}
}
