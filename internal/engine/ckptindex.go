package engine

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/fsutil"
	"repro/internal/wal"
)

// CkptMark is one entry of the in-memory checkpoint index: the wall-clock
// time and begin/end LSNs of a completed checkpoint. The index is what lets
// the SplitLSN search (§5.1) narrow the log region without reading
// checkpoint records back from disk. It is persisted in the checkpoint-index
// sidecar (ckptIndexName), which Open reads in one step; only checkpoints the
// sidecar does not hold yet are read back from the log.
type CkptMark struct {
	WallClock int64
	Begin     wal.LSN
	End       wal.LSN
}

// LastCheckpointMark returns the most recent completed checkpoint's mark.
// ok is false when no checkpoint has completed yet.
func (db *DB) LastCheckpointMark() (CkptMark, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.ckptIndex) == 0 {
		return CkptMark{}, false
	}
	return db.ckptIndex[len(db.ckptIndex)-1], true
}

// CheckpointIndex returns the checkpoint marks in LSN order (oldest first).
func (db *DB) CheckpointIndex() []CkptMark {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]CkptMark, len(db.ckptIndex))
	copy(out, db.ckptIndex)
	return out
}

// noteCheckpointLocked adds a completed checkpoint to the index and makes it
// the boot record's recovery hint, unless the index already holds one at or
// past it: two checkpoints that race finish in either order, and recovery's
// scan and a standby's apply pass checkpoints the index may already hold.
// The sidecar takes the entry with the next boot record write (writeBoot).
// Caller holds db.mu.
func (db *DB) noteCheckpointLocked(mark CkptMark) {
	if n := len(db.ckptIndex); n == 0 || db.ckptIndex[n-1].End < mark.End {
		db.ckptIndex = append(db.ckptIndex, mark)
		db.boot.lastCkptEnd = mark.End
	}
}

// ckptIndexName is the checkpoint-index sidecar: a magic, then one CRC-framed
// entry per checkpoint holding its CkptMark and the time→LSN samples taken
// since the checkpoint before it. Each boot record write appends the entries
// of the checkpoints it names, so Open reads the index with one file read
// instead of walking the checkpoint-end chain back through the log with one
// random read per checkpoint. Like boot.meta it lives outside the log and is
// not charged to a media device.
const ckptIndexName = "ckpt.meta"

// ckptIndexMagic heads the sidecar; its last byte is the layout version.
const ckptIndexMagic = "ASOFCKI\x01"

// An entry is framed as body length u32 | body | CRC-32 (IEEE) of the body
// u32, all little-endian. The body is wall clock i64 | begin u64 | end u64 |
// sample count u32, then per sample its wall clock i64 and LSN u64.
const (
	ckptFrameOverhead = 8
	ckptEntryFixed    = 28
	ckptSampleSize    = 16
)

// ckptEntry is one decoded sidecar entry.
type ckptEntry struct {
	mark  CkptMark
	times []wal.TimeSample
}

// appendCkptEntry appends the frame of one entry to dst.
func appendCkptEntry(dst []byte, m CkptMark, times []wal.TimeSample) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ckptEntryFixed+ckptSampleSize*len(times)))
	body := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.WallClock))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Begin))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.End))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(times)))
	for _, s := range times {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.WallClock))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.LSN))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
}

// nextCkptFrame returns the body of the frame at the start of b and the
// frame's length, or ok false if b does not start with a whole, valid frame:
// too short, a length that is not a whole entry, or a CRC mismatch.
func nextCkptFrame(b []byte) (body []byte, size int, ok bool) {
	if len(b) < ckptFrameOverhead+ckptEntryFixed {
		return nil, 0, false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n < ckptEntryFixed || (n-ckptEntryFixed)%ckptSampleSize != 0 || n > uint64(len(b)-ckptFrameOverhead) {
		return nil, 0, false
	}
	body = b[4 : 4+n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4+n:]) ||
		uint64(binary.LittleEndian.Uint32(body[24:])) != (n-ckptEntryFixed)/ckptSampleSize {
		return nil, 0, false
	}
	return body, int(n) + ckptFrameOverhead, true
}

// decodeCkptIndex parses a sidecar. It returns the entries of the longest
// run of whole, valid frames after the magic whose ends ascend — each
// entry's times a subslice of samples, which holds every entry's samples in
// file order — and the length of the file prefix they make up. The bytes
// past that prefix are a torn tail. ok is false when buf does not start with
// the magic.
func decodeCkptIndex(buf []byte) (entries []ckptEntry, samples []wal.TimeSample, intact int, ok bool) {
	if len(buf) < len(ckptIndexMagic) || string(buf[:len(ckptIndexMagic)]) != ckptIndexMagic {
		return nil, nil, 0, false
	}
	// Count first, so the entries and the samples take one allocation each.
	nEntries, nSamples := 0, 0
	intact = len(ckptIndexMagic)
	for prevEnd := uint64(0); ; {
		body, size, ok := nextCkptFrame(buf[intact:])
		if !ok {
			break
		}
		end := binary.LittleEndian.Uint64(body[16:])
		if end <= prevEnd {
			break
		}
		prevEnd = end
		nEntries++
		nSamples += (len(body) - ckptEntryFixed) / ckptSampleSize
		intact += size
	}
	entries = make([]ckptEntry, 0, nEntries)
	samples = make([]wal.TimeSample, 0, nSamples)
	for off := len(ckptIndexMagic); off < intact; {
		body, size, _ := nextCkptFrame(buf[off:])
		off += size
		first := len(samples)
		for s := body[ckptEntryFixed:]; len(s) > 0; s = s[ckptSampleSize:] {
			samples = append(samples, wal.TimeSample{
				WallClock: int64(binary.LittleEndian.Uint64(s)),
				LSN:       wal.LSN(binary.LittleEndian.Uint64(s[8:])),
			})
		}
		entries = append(entries, ckptEntry{
			mark: CkptMark{
				WallClock: int64(binary.LittleEndian.Uint64(body)),
				Begin:     wal.LSN(binary.LittleEndian.Uint64(body[8:])),
				End:       wal.LSN(binary.LittleEndian.Uint64(body[16:])),
			},
			times: samples[first:len(samples):len(samples)],
		})
	}
	return entries, samples, intact, true
}

func (db *DB) ckptIndexPath() string { return filepath.Join(db.dir, ckptIndexName) }

// loadCkptIndex builds the checkpoint index and reseeds the log's time→LSN
// index when the database opens. It reads the sidecar and drops the entries
// below the truncation point. Then it walks the checkpoint-end chain back
// from the boot record, but only down to the sidecar's newest entry: in the
// normal case the boot record names that entry and no record is read; after
// a crash between the boot record write and the sidecar append, one is. A
// sidecar that is missing, torn, or holds entries the chain does not pass
// through is rewritten from the index built, as is one holding more entries
// below the truncation point than above it.
func (db *DB) loadCkptIndex() error {
	var entries []ckptEntry
	var samples []wal.TimeSample
	clean := false
	if buf, err := os.ReadFile(db.ckptIndexPath()); err == nil {
		var intact int
		entries, samples, intact, clean = decodeCkptIndex(buf)
		clean = clean && intact == len(buf)
	}
	inFile := len(entries)
	trunc := db.log.TruncationPoint()
	dead := sort.Search(len(entries), func(i int) bool { return entries[i].mark.End >= trunc })
	entries = entries[dead:]
	kept := len(entries)

	// Walk the chain down to the sidecar (newest first).
	var walked []ckptEntry
	for cur := db.LastCheckpointEnd(); cur != wal.NilLSN; {
		if cur >= db.log.NextLSN() {
			// The boot record points past the local log: a reseeded standby
			// whose log begins at the backup checkpoint and has not yet
			// ingested that far. Its apply adds those checkpoints as their
			// records arrive.
			break
		}
		for len(entries) > 0 && entries[len(entries)-1].mark.End > cur {
			entries = entries[:len(entries)-1]
		}
		if n := len(entries); n > 0 && entries[n-1].mark.End == cur {
			break
		}
		rec, err := db.log.Read(cur)
		if err != nil {
			if errors.Is(err, wal.ErrTruncated) {
				break
			}
			return err
		}
		data, err := wal.DecodeCheckpoint(rec.Extra)
		if err != nil {
			return err
		}
		walked = append(walked, ckptEntry{mark: CkptMark{WallClock: rec.WallClock, Begin: data.BeginLSN, End: rec.LSN}, times: data.Times})
		if data.PrevEnd >= cur {
			// A predecessor that is not below its successor — older builds
			// wrote checkpoints naming themselves — ends the chain here.
			break
		}
		cur = data.PrevEnd
	}

	marks := make([]CkptMark, 0, len(entries)+len(walked))
	for _, e := range entries {
		marks = append(marks, e.mark)
	}
	if len(entries) < kept || len(walked) > 0 {
		// Only the samples of the entries kept, then the walked ones.
		samples = samples[:0:0]
		for _, e := range entries {
			samples = append(samples, e.times...)
		}
	}
	for i := len(walked) - 1; i >= 0; i-- {
		marks = append(marks, walked[i].mark)
		samples = append(samples, walked[i].times...)
	}
	slices.SortStableFunc(samples, func(a, b wal.TimeSample) int { return cmp.Compare(a.LSN, b.LSN) })
	db.log.SeedTimeIndex(samples)
	db.mu.Lock()
	db.ckptIndex = marks
	db.mu.Unlock()

	db.ckptMu.Lock()
	db.ckptFileOK = clean && len(entries) == kept
	db.ckptFileN = inFile
	db.ckptSaved = wal.NilLSN
	if len(entries) > 0 {
		db.ckptSaved = entries[len(entries)-1].mark.End
	}
	db.ckptMu.Unlock()
	return db.saveCkptIndex(db.LastCheckpointEnd())
}

// saveCkptIndex brings the sidecar up to the index entries at or below upTo,
// the checkpoint the boot record just written names. The entries it lacks
// are appended, each with the time→LSN samples after the entry before it.
// The file is rewritten (write-temp + rename) instead when it is not known
// to be a whole sidecar, or when more of its entries have fallen below the
// truncation point than remain above it, so that a checkpoint's cost stays
// that of its own entry.
func (db *DB) saveCkptIndex(upTo wal.LSN) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	live := sort.Search(len(db.ckptIndex), func(i int) bool { return db.ckptIndex[i].End > upTo })
	saved := sort.Search(live, func(i int) bool { return db.ckptIndex[i].End > db.ckptSaved })
	rewrite := !db.ckptFileOK || db.ckptFileN-saved > live
	if !rewrite && saved == live {
		db.mu.Unlock()
		return nil
	}
	from := saved
	if rewrite {
		from = 0
	}
	marks := slices.Clone(db.ckptIndex[from:live])
	after := wal.NilLSN
	if from > 0 {
		after = db.ckptIndex[from-1].End
	}
	db.mu.Unlock()

	var buf []byte
	if rewrite {
		buf = append(buf, ckptIndexMagic...)
	}
	times := db.log.TimeSamplesSince(after)
	for _, m := range marks {
		n := sort.Search(len(times), func(i int) bool { return times[i].LSN > m.End })
		buf = appendCkptEntry(buf, m, times[:n])
		times = times[n:]
	}
	write := appendFile
	if rewrite {
		write = fsutil.AtomicWriteFile
	}
	if err := write(db.ckptIndexPath(), buf, db.opts.SyncPolicy == wal.SyncData); err != nil {
		// A partial append leaves a torn frame the next append would
		// follow: rewrite the whole file next time.
		db.ckptFileOK = false
		return err
	}
	if rewrite {
		db.ckptFileOK, db.ckptFileN, db.ckptSaved = true, 0, wal.NilLSN
	}
	db.ckptFileN += len(marks)
	if len(marks) > 0 {
		db.ckptSaved = marks[len(marks)-1].End
	}
	return nil
}

// appendFile appends b to the file at path, creating it if absent, and
// syncs it when sync is set.
func appendFile(path string, b []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(b); err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
