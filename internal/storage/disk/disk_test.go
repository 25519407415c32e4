package disk

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/storage/media"
	"repro/internal/storage/page"
)

func testFile(t *testing.T, dev *media.Device) *File {
	t.Helper()
	f, err := Open(filepath.Join(t.TempDir(), "data.db"), dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func somePage(id page.ID, fill byte) []byte {
	p := page.New()
	p.Format(id, page.TypeLeaf, 0)
	p.InsertAt(0, bytes.Repeat([]byte{fill}, 32))
	return p.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := testFile(t, nil)
	want := somePage(3, 'a')
	if err := f.WritePage(3, want); err != nil {
		t.Fatal(err)
	}
	if f.PageCount() != 4 {
		t.Fatalf("PageCount = %d, want 4", f.PageCount())
	}
	got := make([]byte, page.Size)
	if err := f.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page round trip mismatch")
	}
}

func TestReadPastEOF(t *testing.T) {
	f := testFile(t, nil)
	buf := make([]byte, page.Size)
	if err := f.ReadPage(0, buf); !errors.Is(err, ErrPastEOF) {
		t.Fatalf("read of empty file: %v, want ErrPastEOF", err)
	}
}

func TestEnsureGrowsWithZeroPages(t *testing.T) {
	f := testFile(t, nil)
	if err := f.Ensure(5); err != nil {
		t.Fatal(err)
	}
	if f.PageCount() != 5 {
		t.Fatalf("PageCount = %d, want 5", f.PageCount())
	}
	buf := make([]byte, page.Size)
	if err := f.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("grown page not zeroed")
		}
	}
	// Ensure to a smaller size is a no-op.
	if err := f.Ensure(2); err != nil {
		t.Fatal(err)
	}
	if f.PageCount() != 5 {
		t.Fatal("Ensure shrank the file")
	}
}

func TestRandomIOCharged(t *testing.T) {
	dev := media.New(media.SAS(), nil)
	f := testFile(t, dev)
	f.WritePage(0, somePage(0, 'x'))
	buf := make([]byte, page.Size)
	f.ReadPage(0, buf)
	if dev.Stats.RandWrites.Load() != 1 || dev.Stats.RandReads.Load() != 1 {
		t.Fatalf("stats: %+v", dev.Stats.Snapshot())
	}
	if dev.Clock.Elapsed() < media.SAS().RandReadLat {
		t.Fatal("no latency charged")
	}
}

func TestSequentialReadVisitsAllPagesInOrder(t *testing.T) {
	dev := media.New(media.SSD(), nil)
	f := testFile(t, dev)
	for i := 0; i < 10; i++ {
		f.WritePage(page.ID(i), somePage(page.ID(i), byte('a'+i)))
	}
	dev.Stats.Reset()
	var ids []page.ID
	err := f.SequentialRead(func(id page.ID, buf []byte) error {
		ids = append(ids, id)
		if page.FromBytes(buf).ID() != id {
			t.Errorf("page %d content id mismatch", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 || ids[0] != 0 || ids[9] != 9 {
		t.Fatalf("sequential read ids: %v", ids)
	}
	if dev.Stats.SeqReads.Load() != 10 || dev.Stats.RandReads.Load() != 0 {
		t.Fatalf("sequential read charged as: %+v", dev.Stats.Snapshot())
	}
}

func TestSequentialWriteStreams(t *testing.T) {
	f := testFile(t, nil)
	src := [][]byte{somePage(0, 'p'), somePage(1, 'q')}
	i := 0
	err := f.SequentialWrite(func(buf []byte) error {
		if i >= len(src) {
			return io.EOF
		}
		copy(buf, src[i])
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.PageCount() != 2 {
		t.Fatalf("PageCount = %d, want 2", f.PageCount())
	}
	buf := make([]byte, page.Size)
	f.ReadPage(1, buf)
	if !bytes.Equal(buf, src[1]) {
		t.Fatal("sequential write content mismatch")
	}
}

func TestSequentialReadPropagatesCallbackError(t *testing.T) {
	f := testFile(t, nil)
	f.WritePage(0, somePage(0, 'x'))
	sentinel := errors.New("stop")
	if err := f.SequentialRead(func(page.ID, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// TestWriteRunIsOneWrite writes three consecutive pages as one run: one
// charged random write of all their bytes, and each reads back.
func TestWriteRunIsOneWrite(t *testing.T) {
	dev := media.New(media.SSD(), nil)
	f := testFile(t, dev)
	bufs := [][]byte{somePage(4, 'a'), somePage(5, 'b'), somePage(6, 'c')}
	if err := f.WriteRun(4, bufs); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats.RandWrites.Load(); got != 1 {
		t.Fatalf("RandWrites = %d, want 1", got)
	}
	if got := dev.Stats.WriteBytes.Load(); got != 3*page.Size {
		t.Fatalf("WriteBytes = %d, want %d", got, 3*page.Size)
	}
	if f.PageCount() != 7 {
		t.Fatalf("PageCount = %d, want 7", f.PageCount())
	}
	got := make([]byte, page.Size)
	for i, want := range bufs {
		if err := f.ReadPage(page.ID(4+i), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d mismatch", 4+i)
		}
	}
}

// TestReadRunIsOneRead reads three consecutive pages back as one run: one
// charged random read of all their bytes, each page in its own buffer. A run
// reaching past the end of the file fails with ErrPastEOF, charges nothing
// and leaves the buffers as they were.
func TestReadRunIsOneRead(t *testing.T) {
	dev := media.New(media.SSD(), nil)
	f := testFile(t, dev)
	want := [][]byte{somePage(4, 'a'), somePage(5, 'b'), somePage(6, 'c')}
	if err := f.WriteRun(4, want); err != nil {
		t.Fatal(err)
	}
	dev.Stats.Reset()
	got := [][]byte{make([]byte, page.Size), make([]byte, page.Size), make([]byte, page.Size)}
	if err := f.ReadRun(4, got); err != nil {
		t.Fatal(err)
	}
	if n := dev.Stats.RandReads.Load(); n != 1 {
		t.Fatalf("RandReads = %d, want 1", n)
	}
	if n := dev.Stats.ReadBytes.Load(); n != 3*page.Size {
		t.Fatalf("ReadBytes = %d, want %d", n, 3*page.Size)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("page %d mismatch", 4+i)
		}
	}

	dev.Stats.Reset()
	past := [][]byte{make([]byte, page.Size), make([]byte, page.Size), make([]byte, page.Size)}
	if err := f.ReadRun(5, past); !errors.Is(err, ErrPastEOF) {
		t.Fatalf("ReadRun of pages 5..7 of 7: %v, want ErrPastEOF", err)
	}
	if s := dev.Stats.Snapshot(); s.RandReads != 0 || s.ReadBytes != 0 {
		t.Fatalf("failed ReadRun charged %v", s)
	}
	for i, b := range past {
		if !bytes.Equal(b, make([]byte, page.Size)) {
			t.Fatalf("failed ReadRun wrote buffer %d", i)
		}
	}
}

// TestFailedWriteDoesNotGrow writes to a closed file, page by page and as a
// run: the writes fail, PageCount stays put and a read of those pages is
// still ErrPastEOF (what redo's fresh-page branch relies on).
func TestFailedWriteDoesNotGrow(t *testing.T) {
	f := testFile(t, nil)
	if err := f.WritePage(0, somePage(0, 'a')); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := f.WritePage(3, somePage(3, 'b')); err == nil {
		t.Fatal("WritePage on a closed file succeeded")
	}
	if err := f.WriteRun(5, [][]byte{somePage(5, 'c'), somePage(6, 'd')}); err == nil {
		t.Fatal("WriteRun on a closed file succeeded")
	}
	if f.PageCount() != 1 {
		t.Fatalf("PageCount = %d after failed writes, want 1", f.PageCount())
	}
	buf := make([]byte, page.Size)
	for _, id := range []page.ID{3, 6} {
		if err := f.ReadPage(id, buf); !errors.Is(err, ErrPastEOF) {
			t.Fatalf("read of page %d: %v, want ErrPastEOF", id, err)
		}
	}
}
