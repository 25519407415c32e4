package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fsutil"
	"repro/internal/obs"
)

// The log store keeps the logical log — one monotonic byte stream addressed
// by LSN — in fixed-capacity segment files (wal/00000001.seg, ...). Records
// are byte-striped across segments: a record may begin in one segment and
// end in the next, so segmentation never perturbs LSN arithmetic (an LSN is
// still a logical byte offset plus one) and the framed byte stream a replica
// ships, or a block cache indexes, is identical to the flat-file layout.
//
// Every segment file starts with a small self-describing header (magic,
// sequence number, the logical offset of its first log byte, CRC). A
// segment is *sealed* once it holds its full capacity of log bytes; only the
// last segment of a store is ever written. Sealing is what buys the two
// operational properties the flat file could not offer:
//
//   - retention (§4.3) drops or archives whole sealed segments — O(segments
//     dropped) file unlinks/renames, never a rewrite of live data;
//   - an archive holds dropped history as whole segment files, which the
//     store serves to a replica resuming, or reseeded, below the retention
//     horizon.
//
// With an archive directory the store keeps the segments retention moved
// there open beside its live ones: the log's byte stream then begins at the
// first archived byte, and ReadDurable serves it across the archive/live
// boundary like any other segment boundary.
//
// Durability is a store policy (SyncPolicy): with SyncData, every physical
// log force ends with an fdatasync-class sync of the segments it touched,
// and rotations sync both the new segment file and the store directory so a
// crash cannot lose the rotation itself.

// SyncPolicy selects how hard a log force pushes bytes toward stable
// storage.
type SyncPolicy uint8

const (
	// SyncNone leaves log writes buffered in the OS page cache (the seed
	// engine's crash model: a process crash loses nothing, a power failure
	// may lose the tail). Log forces are cheap; group-commit batching
	// arises only from pipelining.
	SyncNone SyncPolicy = iota
	// SyncData makes every log force durable with an fdatasync-class sync
	// of the segment files it wrote: group commit then amortizes a real,
	// expensive log force over every commit that joined the batch.
	SyncData
)

func (p SyncPolicy) String() string {
	if p == SyncData {
		return "fdatasync"
	}
	return "none"
}

// ParseSyncPolicy maps the knob's spelling ("none", "fdatasync") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return SyncNone, nil
	case "fdatasync", "fsync", "data":
		return SyncData, nil
	}
	return SyncNone, fmt.Errorf("wal: unknown sync policy %q (want none|fdatasync)", s)
}

// DefaultSegmentBytes is the default capacity of one segment file.
const DefaultSegmentBytes = 64 << 20

// segment header layout:
//
//	magic(8) | seq u64 | start u64 | crc32 of the previous 24 bytes | pad(4)
const (
	segMagic      = "ASOFSEG\x01"
	segHeaderSize = 32
)

// SegmentInfo describes one segment file (live or archived) — the payload
// of `asofctl log-ls` and the segment set a backup manifest records.
type SegmentInfo struct {
	Seq    uint64 `json:"seq"`
	Base   LSN    `json:"base"`  // LSN of the segment's first log byte
	End    LSN    `json:"end"`   // LSN just past the last byte (Base when empty)
	Bytes  int64  `json:"bytes"` // log bytes present (excluding the header)
	Sealed bool   `json:"sealed"`
	Path   string `json:"path"`
}

// segment is one open segment file. start/size are logical: start is the
// 0-based offset of the segment's first log byte in the whole log, size the
// log bytes currently present. File position = logical offset - start +
// segHeaderSize. size and dirty are atomics because the (single) log writer
// advances them while readers holding only the store's shared lock consult
// them; the manager's own lock ordering guarantees readers never ask for
// bytes a still-running write has not finished.
type segment struct {
	seq   uint64
	start int64
	size  atomic.Int64
	f     *os.File
	path  string
	dirty atomic.Bool // written since the last sync
}

func (s *segment) end() int64 { return s.start + s.size.Load() }

// segmentStore is the on-disk log: an ordered, contiguous list of live
// segments, of which only the last accepts writes, and below them the
// archived segments retention moved into archiveDir.
//
// Locking: mu is an RWMutex over both lists. Readers hold it shared across
// the file ReadAt (file handles cannot be closed or truncated under them);
// the single writer (the manager serializes flushes) holds it shared for
// in-segment writes and exclusive only to mutate a list — rotation, rewind,
// retention moves, an archive reload — so log forces and chain-walk reads
// never block each other.
type segmentStore struct {
	dir        string
	segBytes   int64
	sync       SyncPolicy
	archiveDir string

	// rotations counts successful segment rotations; nil (the default) is a
	// no-op handle. Set by Manager.RegisterObs before concurrent use.
	rotations *obs.Counter

	mu   sync.RWMutex
	segs []*segment
	// arch holds the archive's segments, contiguous among themselves and
	// reaching segs[0]; archErr is why the archive directory last failed to
	// load (a gap, an unreadable header), nil when it loaded.
	arch    []*segment
	archErr error
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// segHeader renders a segment file's header: magic, sequence number, base
// offset and a CRC of the three; the last four bytes are zero.
func segHeader(seq uint64, start int64) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(start))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	return hdr
}

func writeSegHeader(f *os.File, seq uint64, start int64) error {
	hdr := segHeader(seq, start)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// readSegHeader parses a segment file's header. ok=false means the file is
// too short or not a segment (a crash mid-rotation can leave either).
func readSegHeader(f io.ReaderAt) (seq uint64, start int64, ok bool) {
	var hdr [segHeaderSize]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil || n < segHeaderSize {
		return 0, 0, false
	}
	if string(hdr[:8]) != segMagic {
		return 0, 0, false
	}
	if crc32.ChecksumIEEE(hdr[:24]) != binary.LittleEndian.Uint32(hdr[24:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(hdr[8:]), int64(binary.LittleEndian.Uint64(hdr[16:])), true
}

// truncMetaName is the store's persisted logical truncation point. The
// physical floor (first segment's base) is usually mid-record — segments
// byte-stripe records — so scans resuming at it after a restart would parse
// garbage; the sidecar remembers the record-boundary LSN retention actually
// cut at. Written (atomically, before any segment is dropped) by Truncate.
const truncMetaName = "trunc.meta"

const truncMetaMagic = "ASOFTRNC"

// saveTruncPoint persists the logical truncation point atomically (synced
// under SyncData). Called before segments are dropped, so a crash in
// between leaves a sidecar that is merely ahead of the physical floor —
// the safe direction. Callers serialize (Manager.truncMu).
func (st *segmentStore) saveTruncPoint(lsn LSN) error {
	return fsutil.AtomicWriteFile(filepath.Join(st.dir, truncMetaName), encodeTruncPoint(lsn), st.sync == SyncData)
}

// encodeTruncPoint renders trunc.meta: magic, the LSN, and a CRC of both.
func encodeTruncPoint(lsn LSN) []byte {
	buf := make([]byte, 20)
	copy(buf, truncMetaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(lsn))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	return buf
}

// loadTruncPoint reads the persisted logical truncation point, if any.
func loadTruncPoint(dir string) (LSN, bool) {
	buf, err := os.ReadFile(filepath.Join(dir, truncMetaName))
	if err != nil {
		return NilLSN, false
	}
	return parseTruncPoint(buf)
}

// parseTruncPoint parses trunc.meta; ok is false for anything
// encodeTruncPoint did not write.
func parseTruncPoint(buf []byte) (LSN, bool) {
	if len(buf) != 20 || string(buf[:8]) != truncMetaMagic {
		return NilLSN, false
	}
	if crc32.ChecksumIEEE(buf[:16]) != binary.LittleEndian.Uint32(buf[16:]) {
		return NilLSN, false
	}
	return LSN(binary.LittleEndian.Uint64(buf[8:])), true
}

// openSegmentStore opens (creating if necessary) the store in dir. baseOff
// seeds a fresh store's first segment at a nonzero logical offset — the
// replica-reseed case, where the local log begins at the backup checkpoint
// rather than LSN 1. An existing store ignores baseOff.
func openSegmentStore(dir string, segBytes int64, sync SyncPolicy, archiveDir string, baseOff int64) (*segmentStore, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if segBytes < 4<<10 {
		segBytes = 4 << 10 // floor: pathological sizes would rotate per record
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir store: %w", err)
	}
	st := &segmentStore{dir: dir, segBytes: segBytes, sync: sync, archiveDir: archiveDir}

	var err error
	if st.segs, err = openSegments(dir, true); err != nil {
		return nil, err
	}
	if len(st.segs) == 0 {
		if _, err := st.addSegment(1, baseOff); err != nil {
			return nil, err
		}
	}
	st.loadArchive()
	return st, nil
}

// openSegments opens the segment files in dir, sorted by base offset, and
// checks that they are contiguous. A file with a missing or torn header is
// an error naming it, except the newest file of a live store: a crash during
// rotation can leave it so, and it holds no log bytes yet (rotation writes
// the header before any data), so removing it is always safe.
func openSegments(dir string, live bool) ([]*segment, error) {
	names, err := segFileNames(dir)
	if err != nil {
		return nil, err
	}
	flag := os.O_RDONLY
	if live {
		flag = os.O_RDWR
	}
	var segs []*segment
	fail := func(err error) ([]*segment, error) {
		closeSegs(segs)
		return nil, err
	}
	for i, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, flag, 0)
		if err != nil {
			return fail(fmt.Errorf("wal: open segment: %w", err))
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fail(fmt.Errorf("wal: stat segment: %w", err))
		}
		seq, start, ok := readSegHeader(f)
		if !ok {
			f.Close()
			if live && i == len(names)-1 {
				if err := os.Remove(path); err != nil {
					return fail(fmt.Errorf("wal: drop headerless segment: %w", err))
				}
				continue
			}
			return fail(fmt.Errorf("wal: segment %s has a corrupt header", path))
		}
		seg := &segment{seq: seq, start: start, f: f, path: path}
		seg.size.Store(max(fi.Size()-segHeaderSize, 0))
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	for i := 1; i < len(segs); i++ {
		if prev, cur := segs[i-1], segs[i]; prev.end() != cur.start {
			return fail(fmt.Errorf("wal: segment gap: %s ends at %d, %s starts at %d",
				prev.path, prev.end(), cur.path, cur.start))
		}
	}
	return segs, nil
}

// loadArchive (re)opens the archive directory's segments, which must be
// contiguous and reach the live store's first byte. On failure the archive
// is left empty and archErr names the damage. Called at open and, under the
// exclusive lock, by floor.
func (st *segmentStore) loadArchive() {
	closeSegs(st.arch)
	st.arch, st.archErr = nil, nil
	if st.archiveDir == "" {
		return
	}
	arch, err := openSegments(st.archiveDir, false)
	if n := len(arch); err == nil && n > 0 && arch[n-1].end() < st.segs[0].start {
		err = fmt.Errorf("wal: archive ends at offset %d but the live log begins at %d",
			arch[n-1].end(), st.segs[0].start)
		closeSegs(arch)
	}
	if err != nil {
		st.archErr = fmt.Errorf("archive %s: %w", st.archiveDir, err)
		return
	}
	st.arch = arch
}

// floor returns the lowest logical offset the store holds, archived or
// live, and archErr. An archived file gone from the directory since it was
// listed (an operator pruning history a backup covers) makes it re-read the
// directory first.
func (st *segmentStore) floor() (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.arch) > 0 {
		if _, err := os.Stat(st.arch[0].path); errors.Is(err, os.ErrNotExist) {
			st.loadArchive()
		}
	}
	if len(st.arch) > 0 && st.arch[0].start < st.segs[0].start {
		return st.arch[0].start, st.archErr
	}
	return st.segs[0].start, st.archErr
}

func segFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A missing directory is an empty store — the shape log-ls and
			// archive views see on pre-segmentation or fresh databases.
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read store dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func closeSegs(segs []*segment) {
	for _, s := range segs {
		s.f.Close()
	}
}

// createSegment creates (and, under SyncData, syncs) a fresh segment file.
// It takes no locks — rotation prepares the file before briefly taking the
// exclusive lock just for the list append, so log readers never stall
// behind the rotation's fsyncs.
func (st *segmentStore) createSegment(seq uint64, start int64) (*segment, error) {
	path := filepath.Join(st.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if err := writeSegHeader(f, seq, start); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: segment header: %w", err)
	}
	if st.sync == SyncData {
		// The rotation itself must be durable: the header identifies the
		// segment; the caller syncs the directory entry.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync new segment: %w", err)
		}
	}
	return &segment{seq: seq, start: start, f: f, path: path}, nil
}

// addSegment creates and appends a fresh segment (open-time path: no
// concurrency, no lock discipline needed).
func (st *segmentStore) addSegment(seq uint64, start int64) (*segment, error) {
	seg, err := st.createSegment(seq, start)
	if err != nil {
		return nil, err
	}
	if st.sync == SyncData {
		if err := fsutil.SyncDir(st.dir); err != nil {
			seg.f.Close()
			return nil, fmt.Errorf("wal: sync store dir: %w", err)
		}
	}
	st.segs = append(st.segs, seg)
	return seg, nil
}

// startOff returns the logical offset of the first byte the store holds.
func (st *segmentStore) startOff() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.segs[0].start
}

// endOff returns the logical offset just past the last byte the store holds.
func (st *segmentStore) endOff() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.segs[len(st.segs)-1].end()
}

// writeAt writes b at logical offset off, rotating into fresh segments as
// capacity fills. The manager serializes writers (one flush at a time;
// AppendRaw and Rewind require quiescence), so writeAt never races itself.
func (st *segmentStore) writeAt(b []byte, off int64) error {
	for len(b) > 0 {
		st.mu.RLock()
		active := st.segs[len(st.segs)-1]
		st.mu.RUnlock()
		if off < active.start || off > active.end() {
			return fmt.Errorf("wal: write at %d outside active segment [%d,%d]",
				off, active.start, active.end())
		}
		room := st.segBytes - (off - active.start)
		if room <= 0 {
			// The active segment is full: seal it and rotate. The file is
			// created and fsync'd without any lock (there is exactly one
			// log writer); the exclusive lock covers only the list append,
			// so readers are never blocked behind the rotation's syncs.
			seg, err := st.createSegment(active.seq+1, off)
			if err != nil {
				return err
			}
			st.mu.Lock()
			if cur := st.segs[len(st.segs)-1]; cur == active && cur.end() == off {
				st.segs = append(st.segs, seg)
				seg = nil
			}
			st.mu.Unlock()
			if seg != nil { // lost a (theoretically impossible) race: discard
				seg.f.Close()
				os.Remove(seg.path)
				continue
			}
			st.rotations.Inc()
			if st.sync == SyncData {
				if err := fsutil.SyncDir(st.dir); err != nil {
					return fmt.Errorf("wal: sync store dir: %w", err)
				}
			}
			continue
		}
		n := int64(len(b))
		if n > room {
			n = room
		}
		if _, err := active.f.WriteAt(b[:n], off-active.start+segHeaderSize); err != nil {
			return fmt.Errorf("wal: segment write: %w", err)
		}
		active.dirty.Store(true)
		if end := off + n - active.start; end > active.size.Load() {
			active.size.Store(end)
		}
		b = b[n:]
		off += n
	}
	return nil
}

// syncDirty makes every segment written since the last sync durable. Under
// SyncNone it is a no-op — the knob that preserves the seed crash model.
func (st *segmentStore) syncDirty() error {
	if st.sync != SyncData {
		return nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	// Dirty segments are always a suffix of the list: writes only touch
	// the active segment (and, across a rotation, the one it sealed), and
	// older segments are immutable — so stop at the first clean one
	// instead of walking a long-retention store's whole list per force.
	for i := len(st.segs) - 1; i >= 0; i-- {
		s := st.segs[i]
		if !s.dirty.Load() {
			break
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("wal: segment sync: %w", err)
		}
		s.dirty.Store(false)
	}
	return nil
}

// readAt fills b from logical offset off, spanning segments, archived ones
// included. Returns the bytes served; short only at the end of the store. A
// byte the store does not hold (dropped without an archive, or before a
// reseeded store's base) is an error wrapping ErrTruncated, unless zeroFill
// is set: the block cache loads whole 32 KiB blocks whose first bytes may
// predate the live floor, gets those as zeros, and the manager's
// truncation-point check keeps record reads from ever depending on them.
func (st *segmentStore) readAt(b []byte, off int64, zeroFill bool) (int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	read := 0
	if floor := st.segs[0].start; off < floor {
		n := min(int64(len(b)), floor-off)
		switch {
		case zeroFill:
			clear(b[:n])
		case len(st.arch) == 0 || off < st.arch[0].start:
			err := fmt.Errorf("%w: offset %d is below the log's floor", ErrTruncated, off)
			if st.archErr != nil {
				err = fmt.Errorf("%w (%w)", err, st.archErr)
			}
			return 0, err
		default:
			if _, err := readSegs(st.arch, b[:n], off); err != nil {
				return 0, err
			}
		}
		read, off = int(n), off+n
	}
	n, err := readSegs(st.segs, b[read:], off)
	return read + n, err
}

// readSegs fills b from logical offset off out of segs, which are sorted and
// contiguous. Returns the bytes served; short only at their end.
func readSegs(segs []*segment, b []byte, off int64) (int, error) {
	read := 0
	for read < len(b) {
		i := sort.Search(len(segs), func(i int) bool { return segs[i].end() > off })
		if i == len(segs) {
			if read == 0 {
				return 0, io.EOF
			}
			return read, nil
		}
		seg := segs[i]
		if off < seg.start {
			return read, fmt.Errorf("wal: read at %d below segment floor %d", off, seg.start)
		}
		n := min(int64(len(b)-read), seg.end()-off)
		rn, err := seg.f.ReadAt(b[read:read+int(n)], off-seg.start+segHeaderSize)
		if err != nil && !(errors.Is(err, io.EOF) && int64(rn) == n) {
			return read + rn, fmt.Errorf("wal: segment read at %d: %w", off, err)
		}
		read += int(n)
		off += n
	}
	return read, nil
}

// truncateTo discards everything at or past logical offset off: segments
// wholly past it are deleted, the one containing it is truncated and
// becomes the active segment again. The crash-recovery and replica-resync
// rewind path; the caller guarantees quiescence.
func (st *segmentStore) truncateTo(off int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if off < st.segs[0].start {
		return fmt.Errorf("wal: truncate to %d below store floor %d", off, st.segs[0].start)
	}
	keep := len(st.segs)
	for keep > 1 && st.segs[keep-1].start >= off {
		keep--
	}
	// Per-segment, file operation first, list update second: a failure
	// (e.g. EROFS) must never leave a closed or removed handle in the live
	// list, or every later read of its range would fail until restart.
	for len(st.segs) > keep {
		s := st.segs[len(st.segs)-1]
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: remove rewound segment: %w", err)
		}
		s.f.Close()
		st.segs = st.segs[:len(st.segs)-1]
	}
	tail := st.segs[keep-1]
	if size := off - tail.start; size < tail.size.Load() {
		if err := tail.f.Truncate(size + segHeaderSize); err != nil {
			return fmt.Errorf("wal: rewind truncate: %w", err)
		}
		tail.size.Store(size)
		tail.dirty.Store(true)
	}
	if st.sync == SyncData {
		if err := tail.f.Sync(); err != nil {
			return err
		}
		tail.dirty.Store(false)
		if err := fsutil.SyncDir(st.dir); err != nil {
			return err
		}
	}
	return nil
}

// dropBefore removes whole sealed segments whose every byte lies below
// logical offset off from the live list — the O(segments dropped) retention
// path. With an archive directory configured the files are renamed into it
// (same name, still self-describing via their headers) and move, still
// open, to the archived list; otherwise they are unlinked. The active
// segment is never dropped. Returns how many segments were archived and
// removed.
func (st *segmentStore) dropBefore(off int64) (archived, removed int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.segs) < 2 || st.segs[0].end() > off {
		return 0, 0, nil
	}
	if st.archiveDir != "" {
		if err := os.MkdirAll(st.archiveDir, 0o755); err != nil {
			return 0, 0, fmt.Errorf("wal: mkdir archive: %w", err)
		}
	}
	// Per-segment, file operation first, list update second: a failed
	// rename (e.g. an archive directory on another filesystem: EXDEV) must
	// leave the remaining segments fully readable, not closed handles in
	// the live list.
	for len(st.segs) > 1 && st.segs[0].end() <= off {
		s := st.segs[0]
		if st.archiveDir != "" {
			path := filepath.Join(st.archiveDir, filepath.Base(s.path))
			if err := os.Rename(s.path, path); err != nil {
				return archived, removed, fmt.Errorf("wal: archive segment: %w", err)
			}
			s.path = path
			st.arch = append(st.arch, s)
			archived++
		} else {
			if err := os.Remove(s.path); err != nil {
				return archived, removed, fmt.Errorf("wal: drop segment: %w", err)
			}
			s.f.Close()
			removed++
		}
		st.segs = append(st.segs[:0], st.segs[1:]...)
	}
	if st.sync == SyncData {
		if err := fsutil.SyncDir(st.dir); err != nil {
			return archived, removed, err
		}
		if st.archiveDir != "" {
			if err := fsutil.SyncDir(st.archiveDir); err != nil {
				return archived, removed, err
			}
		}
	}
	return archived, removed, nil
}

// infos snapshots the store's segment list.
func (st *segmentStore) infos() []SegmentInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]SegmentInfo, len(st.segs))
	for i, s := range st.segs {
		out[i] = SegmentInfo{
			Seq:    s.seq,
			Base:   LSN(s.start + 1),
			End:    LSN(s.end() + 1),
			Bytes:  s.size.Load(),
			Sealed: i != len(st.segs)-1,
			Path:   s.path,
		}
	}
	return out
}

func (st *segmentStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, s := range st.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	closeSegs(st.arch)
	st.segs, st.arch = nil, nil
	return first
}

// ListSegments reads the segment headers in dir (a live store or an archive
// directory) without opening a Manager — the `asofctl log-ls` read path.
// The last listed segment of a live store is the active one; archived
// segments are always sealed, but this function cannot tell the
// directories apart, so Sealed is left to the caller's interpretation.
func ListSegments(dir string) ([]SegmentInfo, error) {
	names, err := segFileNames(dir)
	if err != nil {
		return nil, err
	}
	var out []SegmentInfo
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		fi, statErr := f.Stat()
		seq, start, ok := readSegHeader(f)
		f.Close()
		if statErr != nil {
			return nil, statErr
		}
		if !ok {
			continue // headerless rotation leftover
		}
		size := fi.Size() - segHeaderSize
		if size < 0 {
			size = 0
		}
		out = append(out, SegmentInfo{
			Seq:   seq,
			Base:  LSN(start + 1),
			End:   LSN(start + size + 1),
			Bytes: size,
			Path:  path,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	for i := range out {
		out[i].Sealed = i != len(out)-1
	}
	return out, nil
}
