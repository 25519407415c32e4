package sidefile

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage/media"
	"repro/internal/storage/page"
)

func chargedSide(t *testing.T) (*File, *media.Device) {
	t.Helper()
	dev := media.New(media.SSD(), nil)
	s, err := Create(filepath.Join(t.TempDir(), "run.side"), dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dev
}

func readFill(t *testing.T, read func(page.ID, []byte) (bool, error), id page.ID) byte {
	t.Helper()
	buf := make([]byte, page.Size)
	ok, err := read(id, buf)
	if err != nil || !ok {
		t.Fatalf("page %d: found=%v err=%v", id, ok, err)
	}
	return buf[0]
}

// TestWriteRunNewPagesOneWrite: k pages new to the file are one charged
// write of k pages, at consecutive offsets, and each reads back.
func TestWriteRunNewPagesOneWrite(t *testing.T) {
	s, dev := chargedSide(t)
	const k = 5
	ids := []page.ID{40, 12, 7, 99, 3}
	bufs := make([][]byte, k)
	for i := range bufs {
		bufs[i] = pageWith(byte('a' + i))
	}
	if err := s.WriteRun(ids, bufs); err != nil {
		t.Fatal(err)
	}
	if w, b := dev.Stats.RandWrites.Load(), dev.Stats.WriteBytes.Load(); w != 1 || b != k*page.Size {
		t.Fatalf("RandWrites %d WriteBytes %d, want 1 and %d", w, b, k*page.Size)
	}
	if ios, pages := s.WriteStats(); ios != 1 || pages != k {
		t.Fatalf("WriteStats = %d ios, %d pages; want 1, %d", ios, pages, k)
	}
	for i, id := range ids {
		if got := readFill(t, s.ReadPage, id); got != byte('a'+i) {
			t.Fatalf("page %d reads %q, want %q", id, got, 'a'+i)
		}
	}
}

// TestWriteRunRewriteIsItsOwnWrite: a page already in the file is
// rewritten in place by its own write; the new pages beside it still go
// out as one.
func TestWriteRunRewriteIsItsOwnWrite(t *testing.T) {
	s, dev := chargedSide(t)
	if err := s.WritePage(8, pageWith('o')); err != nil {
		t.Fatal(err)
	}
	dev.Stats.Reset()
	err := s.WriteRun([]page.ID{1, 8, 2}, [][]byte{pageWith('x'), pageWith('n'), pageWith('y')})
	if err != nil {
		t.Fatal(err)
	}
	if w := dev.Stats.RandWrites.Load(); w != 2 {
		t.Fatalf("RandWrites = %d, want 2 (the rewrite, then the two new pages)", w)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for id, want := range map[page.ID]byte{1: 'x', 8: 'n', 2: 'y'} {
		if got := readFill(t, s.ReadPage, id); got != want {
			t.Fatalf("page %d reads %q, want %q", id, got, want)
		}
	}
}

// TestWriteRunFailureLeavesNoIndexEntry writes to a closed side file: the
// writes fail and no page is reported as materialized.
func TestWriteRunFailureLeavesNoIndexEntry(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "closed.side"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.WritePage(1, pageWith('a')); err == nil {
		t.Fatal("WritePage on a closed file succeeded")
	}
	if err := s.WriteRun([]page.ID{2, 3}, [][]byte{pageWith('b'), pageWith('c')}); err == nil {
		t.Fatal("WriteRun on a closed file succeeded")
	}
	if s.Len() != 0 || s.Has(1) || s.Has(2) || s.Has(3) {
		t.Fatalf("Len %d after failed writes, want 0", s.Len())
	}
}

// TestEnqueueNewIsOneWrite: a group queued by EnqueueNew reaches the file
// as one device write.
func TestEnqueueNewIsOneWrite(t *testing.T) {
	s, dev := chargedSide(t)
	w := NewWriter(s)
	defer w.Close()
	ids := []page.ID{5, 6, 7, 8}
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = pageWith(byte(i))
	}
	release, err := w.EnqueueNew(ids, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids { // held: served from memory, nothing written
		if got := readFill(t, w.Read, id); got != byte(i) || s.Len() != 0 {
			t.Fatalf("page %d reads %d with %d pages in the file", id, got, s.Len())
		}
	}
	release()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats.RandWrites.Load(); got != 1 {
		t.Fatalf("RandWrites = %d, want 1", got)
	}
	if s.Len() != len(ids) || w.Len() != len(ids) {
		t.Fatalf("file holds %d pages, writer %d; want %d", s.Len(), w.Len(), len(ids))
	}
}

// TestEnqueueNewNeverReplaces: a page pending in the writer, or already in
// the file, keeps its content when a batch offers a stale copy of it.
func TestEnqueueNewNeverReplaces(t *testing.T) {
	s := testSide(t)
	w := NewWriter(s)
	defer w.Close()
	if err := w.Enqueue(1, pageWith('F')); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Has(1) {
		t.Fatal("page 1 not persisted by Flush")
	}
	if err := w.Enqueue(2, pageWith('F')); err != nil { // pending, maybe persisted
		t.Fatal(err)
	}
	release, err := w.EnqueueNew([]page.ID{1, 2, 3}, [][]byte{pageWith('s'), pageWith('s'), pageWith('n')})
	if err != nil {
		t.Fatal(err)
	}
	release()
	for id, want := range map[page.ID]byte{1: 'F', 2: 'F', 3: 'n'} {
		if got := readFill(t, w.Read, id); got != want {
			t.Fatalf("page %d reads %q before the flush, want %q", id, got, want)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[page.ID]byte{1: 'F', 2: 'F', 3: 'n'} {
		if got := readFill(t, s.ReadPage, id); got != want {
			t.Fatalf("page %d reads %q from the file, want %q", id, got, want)
		}
	}
}

// TestEnqueueNewBesideEnqueue races batches of new pages, held until the
// end, against single enqueues of the same pages; after a flush each page
// holds the last Enqueue'd content (EnqueueNew may only fill pages nothing
// else wrote).
// Run under -race in CI.
func TestEnqueueNewBesideEnqueue(t *testing.T) {
	s := testSide(t)
	w := NewWriter(s)
	defer w.Close()
	const pages = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var releases []func() // held while the other groups drain
		defer func() {
			for _, release := range releases {
				release()
			}
		}()
		for lo := 0; lo < pages; lo += 8 {
			ids := make([]page.ID, 8)
			bufs := make([][]byte, 8)
			for i := range ids {
				ids[i] = page.ID(lo + i)
				bufs[i] = pageWith('b')
			}
			release, err := w.EnqueueNew(ids, bufs)
			if err != nil {
				t.Error(err)
				return
			}
			releases = append(releases, release)
		}
	}()
	go func() {
		defer wg.Done()
		for id := pages - 1; id >= 0; id -= 3 {
			for _, fill := range []byte{'x', 'e'} {
				if err := w.Enqueue(page.ID(id), pageWith(fill)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != pages {
		t.Fatalf("file holds %d pages, want %d", s.Len(), pages)
	}
	for id := 0; id < pages; id++ {
		want := byte('b')
		if (pages-1-id)%3 == 0 {
			want = 'e'
		}
		if got := readFill(t, s.ReadPage, page.ID(id)); got != want {
			t.Fatalf("page %d reads %q, want %q", id, got, want)
		}
	}
}

// TestWriterLenWhileWriteRunDrains: Len counts each materialized page once
// while the drainer moves pages from the pending set into the file — a page
// the file has just indexed but the writer has not yet retired from pending
// is still one page.
func TestWriterLenWhileWriteRunDrains(t *testing.T) {
	s, _ := chargedSide(t)
	w := NewWriter(s)
	defer w.Close()
	buf := pageWith('l')
	for i := 0; i < 3000; i++ {
		if err := w.Enqueue(page.ID(i+1), buf); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if n := w.Len(); n != i+1 {
				t.Fatalf("after %d distinct pages Len() = %d", i+1, n)
			}
		}
	}
}
