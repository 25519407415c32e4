package sidefile

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage/media"
	"repro/internal/storage/page"
)

func testSide(t *testing.T) *File {
	t.Helper()
	s, err := Create(filepath.Join(t.TempDir(), "snap.side"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pageWith(fill byte) []byte {
	b := make([]byte, page.Size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestMissThenHit(t *testing.T) {
	s := testSide(t)
	buf := make([]byte, page.Size)
	ok, err := s.ReadPage(7, buf)
	if err != nil || ok {
		t.Fatalf("fresh side file hit: ok=%v err=%v", ok, err)
	}
	if s.Has(7) {
		t.Fatal("Has(7) before write")
	}
	if err := s.WritePage(7, pageWith('z')); err != nil {
		t.Fatal(err)
	}
	if !s.Has(7) || s.Len() != 1 {
		t.Fatalf("Has=%v Len=%d after write", s.Has(7), s.Len())
	}
	ok, err = s.ReadPage(7, buf)
	if err != nil || !ok {
		t.Fatalf("hit failed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(buf, pageWith('z')) {
		t.Fatal("content mismatch")
	}
}

func TestOverwriteKeepsSingleExtent(t *testing.T) {
	s := testSide(t)
	s.WritePage(3, pageWith('a'))
	s.WritePage(3, pageWith('b'))
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", s.Len())
	}
	buf := make([]byte, page.Size)
	s.ReadPage(3, buf)
	if buf[0] != 'b' {
		t.Fatal("overwrite content lost")
	}
}

func TestPagesListing(t *testing.T) {
	s := testSide(t)
	for _, id := range []page.ID{5, 1, 9} {
		s.WritePage(id, pageWith(byte(id)))
	}
	ids := s.Pages()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 5 || ids[2] != 9 {
		t.Fatalf("Pages() = %v", ids)
	}
}

func TestCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.side")
	s, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.WritePage(1, pageWith('q'))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("side file not removed: %v", err)
	}
}

func TestChargesDevice(t *testing.T) {
	dev := media.New(media.SSD(), nil)
	s, err := Create(filepath.Join(t.TempDir(), "c.side"), dev)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WritePage(1, pageWith('q'))
	buf := make([]byte, page.Size)
	s.ReadPage(1, buf)
	if dev.Stats.RandWrites.Load() != 1 || dev.Stats.RandReads.Load() != 1 {
		t.Fatalf("stats: %+v", dev.Stats.Snapshot())
	}
}

func TestConcurrentWritersDistinctPages(t *testing.T) {
	s := testSide(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := page.ID(w*100 + i)
				if err := s.WritePage(id, pageWith(byte(w))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 160 {
		t.Fatalf("Len = %d, want 160", s.Len())
	}
	buf := make([]byte, page.Size)
	for w := 0; w < 8; w++ {
		ok, err := s.ReadPage(page.ID(w*100), buf)
		if err != nil || !ok || buf[0] != byte(w) {
			t.Fatalf("writer %d page lost: ok=%v err=%v b=%d", w, ok, err, buf[0])
		}
	}
}

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

func readFill(t *testing.T, s *File, id page.ID) byte {
	t.Helper()
	buf := make([]byte, page.Size)
	ok, err := s.ReadPage(id, buf)
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
		if got := readFill(t, s, id); got != byte('a'+i) {
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
		if got := readFill(t, s, id); got != want {
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
