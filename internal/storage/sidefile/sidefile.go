// Package sidefile implements the sparse side file backing database
// snapshots (§2.2, §5.3). The paper uses NTFS sparse files — one per
// database file — that store only the pages materialized for the snapshot:
// for regular snapshots the copy-on-write pre-images, for as-of snapshots
// the cached copies of pages already undone to the SplitLSN.
//
// This implementation provides the same contract portably: a page-keyed
// sparse store (an extent file plus an in-memory index) where a lookup
// either hits a materialized page or falls through to the primary database.
package sidefile

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/storage/media"
	"repro/internal/storage/page"
)

// File is a sparse page store. It is safe for concurrent use.
type File struct {
	mu    sync.RWMutex
	f     *os.File
	dev   *media.Device
	index map[page.ID]int64 // page id -> byte offset in extent file
	next  int64

	readIOs      atomic.Int64 // device reads issued
	writeIOs     atomic.Int64 // device writes issued
	pagesWritten atomic.Int64 // pages those writes carried
}

// Create creates a new, empty side file at path, truncating any existing
// file. dev may be nil.
func Create(path string, dev *media.Device) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sidefile: create: %w", err)
	}
	return &File{f: f, dev: dev, index: make(map[page.ID]int64)}, nil
}

// Close closes and removes the side file (snapshot lifetimes are
// user-controlled; dropping the snapshot reclaims the space).
func (s *File) Close() error {
	name := s.f.Name()
	if err := s.f.Close(); err != nil {
		return err
	}
	return os.Remove(name)
}

// Len returns the number of materialized pages.
func (s *File) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Has reports whether page id is materialized in the side file.
func (s *File) Has(id page.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[id]
	return ok
}

// ReadPage reads page id into buf if materialized, reporting whether it was
// found. A hit costs one random read on the side file's device.
func (s *File) ReadPage(id page.ID, buf []byte) (bool, error) {
	if len(buf) != page.Size {
		return false, fmt.Errorf("sidefile: read buffer is %d bytes", len(buf))
	}
	s.mu.RLock()
	off, ok := s.index[id]
	s.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return false, fmt.Errorf("sidefile: read page %d: %w", id, err)
	}
	s.dev.ChargeRead(page.Size, false)
	s.readIOs.Add(1)
	return true, nil
}

// WritePage materializes (or overwrites) page id with buf.
func (s *File) WritePage(id page.ID, buf []byte) error {
	return s.WriteRun([]page.ID{id}, [][]byte{buf})
}

// runBufs recycles WriteRun's staging buffers across side files: each
// snapshot has its own file, and snapshots are mounted continuously.
var runBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteRun materializes pages ids[i] with bufs[i]; ids must be distinct.
// The pages not yet in the file get consecutive offsets, in order, and
// reach the file as one device write, charged once; a page that already
// has an offset is rewritten in place as its own write. A page is entered
// in the index only once its write succeeded, so after a failure no index
// entry points at an offset that was never written.
func (s *File) WriteRun(ids []page.ID, bufs [][]byte) error {
	if len(ids) != len(bufs) {
		return fmt.Errorf("sidefile: %d ids for %d buffers", len(ids), len(bufs))
	}
	for _, b := range bufs {
		if len(b) != page.Size {
			return fmt.Errorf("sidefile: write buffer is %d bytes", len(b))
		}
	}
	// Reserve the new pages' offsets in one stretch: a concurrent writer
	// gets the space after it. A page keeps its offset once it has one.
	type rewrite struct {
		i   int
		off int64
	}
	var fresh []int
	var old []rewrite
	s.mu.Lock()
	for i, id := range ids {
		if off, ok := s.index[id]; ok {
			old = append(old, rewrite{i, off})
		} else {
			fresh = append(fresh, i)
		}
	}
	start := s.next
	s.next += int64(len(fresh)) * page.Size
	s.mu.Unlock()
	for _, r := range old {
		if err := s.write(r.off, bufs[r.i], 1); err != nil {
			return fmt.Errorf("sidefile: write page %d: %w", ids[r.i], err)
		}
	}
	switch len(fresh) {
	case 0:
		return nil
	case 1:
		if err := s.write(start, bufs[fresh[0]], 1); err != nil {
			return fmt.Errorf("sidefile: write page %d: %w", ids[fresh[0]], err)
		}
	default:
		staged := runBufs.Get().(*[]byte)
		n := len(fresh) * page.Size
		if cap(*staged) < n { // exactly n: growing by append leaves discarded copies
			*staged = make([]byte, n)
		}
		run := (*staged)[:n]
		for k, i := range fresh {
			copy(run[k*page.Size:], bufs[i])
		}
		err := s.write(start, run, len(fresh))
		runBufs.Put(staged)
		if err != nil {
			return fmt.Errorf("sidefile: write %d pages from page %d: %w", len(fresh), ids[fresh[0]], err)
		}
	}
	s.mu.Lock()
	for k, i := range fresh {
		s.index[ids[i]] = start + int64(k)*page.Size
	}
	s.mu.Unlock()
	return nil
}

// write issues one device write of n pages at off.
func (s *File) write(off int64, b []byte, n int) error {
	if _, err := s.f.WriteAt(b, off); err != nil {
		return err
	}
	s.dev.ChargeWrite(int64(len(b)), false)
	s.writeIOs.Add(1)
	s.pagesWritten.Add(int64(n))
	return nil
}

// WriteStats returns how many device writes the file has issued and how
// many pages they carried.
func (s *File) WriteStats() (ios, pages int64) {
	return s.writeIOs.Load(), s.pagesWritten.Load()
}

// ReadIOs returns how many page reads the file has served.
func (s *File) ReadIOs() int64 { return s.readIOs.Load() }

// Pages returns the ids of all materialized pages (unordered).
func (s *File) Pages() []page.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]page.ID, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	return ids
}
