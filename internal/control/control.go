// Package control owns a node's control file, control.log: the small durable
// state recovery, the SplitLSN search (§5.1) and a standby restart start
// from. It is a magic followed by CRC-framed records: boot (the boot block
// page 0 also holds, naming the checkpoint recovery starts from), ckpt (a
// checkpoint and its time→LSN samples: the checkpoint index), standby (a
// standby's apply state) and promoted (the node's log forked from its
// upstream's). The newest boot, standby and promoted record wins.
//
// The crash-window rule: every write is one append of whole frames (a
// checkpoint's boot and ckpt records together) or a rewrite by write-temp +
// rename, so a reader sees the state before a write or after it: Open drops
// a torn frame. Like trunc.meta, the file is not charged to a media device.
package control

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"

	"repro/internal/fsutil"
	"repro/internal/wal"
)

// Name is the control file's name in a node directory; magic heads the
// file, its last byte the layout version.
const (
	Name  = "control.log"
	magic = "ASOFCTL\x01"
)

// ErrBadMagic reports a file that does not start with the magic; ErrTorn,
// bytes past the last whole, valid frame (a torn append, or corruption).
var (
	ErrBadMagic = errors.New("control: not a control file")
	ErrTorn     = errors.New("control: torn or corrupt tail")
)

// Kind is a record's kind.
type Kind uint8

const (
	KindBoot Kind = 1 + iota
	KindCkpt
	KindStandby
	KindPromoted
)

// Record is one control record. A boot body is the engine's boot block; a
// promoted body is empty.
type Record struct {
	Kind Kind
	Body []byte
}

// AppendFrame appends r's frame to dst: body length u32 | kind u8 | body |
// CRC-32 (IEEE) of kind and body u32, all little-endian.
func AppendFrame(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Body)))
	at := len(dst)
	dst = append(append(dst, byte(r.Kind)), r.Body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:]))
}

// Encode renders a whole control file holding recs.
func Encode(recs []Record) []byte {
	buf := []byte(magic)
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	return buf
}

// Decode returns the records of the longest run of valid frames after the
// magic (bodies alias buf) and the length of the prefix they make up: a CRC
// that matches, a known kind, a body that fits it, and a ckpt record ending
// above the one before. err wraps ErrBadMagic or ErrTorn unless the prefix
// is all of buf.
func Decode(buf []byte) (recs []Record, intact int, err error) {
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return nil, 0, ErrBadMagic
	}
	intact = len(magic)
	lastCkpt := uint64(0)
	for b := buf[intact:]; len(b) >= 9; b = buf[intact:] {
		n := uint64(binary.LittleEndian.Uint32(b))
		if n > uint64(len(b)-9) || crc32.ChecksumIEEE(b[4:5+n]) != binary.LittleEndian.Uint32(b[5+n:]) {
			break
		}
		r := Record{Kind: Kind(b[4]), Body: b[5 : 5+n : 5+n]}
		ckpt := r.Kind == KindCkpt && fits(r.Body, ckptHead, 2) && word(r.Body, 2) > lastCkpt
		if !ckpt && r.Kind != KindBoot && (r.Kind != KindStandby || !fits(r.Body, standbyHead, 3)) &&
			(r.Kind != KindPromoted || n != 0) {
			break
		}
		if ckpt {
			lastCkpt = word(r.Body, 2)
		}
		recs = append(recs, r)
		intact += 9 + int(n)
	}
	if intact < len(buf) {
		return recs, intact, fmt.Errorf("%w: %d of %d bytes intact", ErrTorn, intact, len(buf))
	}
	return recs, intact, nil
}

// A ckpt or standby body is little-endian u64 words: a head whose last word
// counts the entries that follow, each per words long. fits checks the count
// by division, so a huge one cannot wrap the length check.
func fits(b []byte, head, per int) bool {
	n := len(b) / 8
	return len(b)%8 == 0 && n >= head && (n-head)%per == 0 && word(b, head-1) == uint64((n-head)/per)
}

func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

func appendWords(b []byte, ws ...uint64) []byte {
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Checkpoint is a ckpt record: a completed checkpoint's wall-clock time, its
// begin and end LSNs (the head's other words), and the time→LSN samples
// taken since the one before (two words each).
type Checkpoint struct {
	WallClock  int64
	Begin, End wal.LSN
	Times      []wal.TimeSample
}

const ckptHead = 4

// Record encodes c as a ckpt record.
func (c Checkpoint) Record() Record {
	b := appendWords(make([]byte, 0, 8*(ckptHead+2*len(c.Times))),
		uint64(c.WallClock), uint64(c.Begin), uint64(c.End), uint64(len(c.Times)))
	for _, s := range c.Times {
		b = appendWords(b, uint64(s.WallClock), uint64(s.LSN))
	}
	return Record{Kind: KindCkpt, Body: b}
}

// ParseCheckpoint decodes a ckpt body; ok is false when it does not fit.
func ParseCheckpoint(b []byte) (c Checkpoint, ok bool) {
	if !fits(b, ckptHead, 2) {
		return c, false
	}
	c = Checkpoint{WallClock: int64(word(b, 0)), Begin: wal.LSN(word(b, 1)), End: wal.LSN(word(b, 2))}
	for i := ckptHead; i < len(b)/8; i += 2 {
		c.Times = append(c.Times, wal.TimeSample{WallClock: int64(word(b, i)), LSN: wal.LSN(word(b, i+1))})
	}
	return c, true
}

// Standby is a standby record: the apply position, the analysis state at it
// (the highest transaction id seen and the transactions in flight, three
// words each), and the last applied commit. A standby without one rescans
// its whole local log.
type Standby struct {
	Applied       wal.LSN
	MaxTxn        uint64
	LastCommitWC  int64
	LastCommitLSN wal.LSN
	ATT           []wal.ATTEntry
}

const standbyHead = 5

// Record encodes s as a standby record.
func (s Standby) Record() Record {
	b := appendWords(make([]byte, 0, 8*(standbyHead+3*len(s.ATT))),
		uint64(s.Applied), s.MaxTxn, uint64(s.LastCommitWC), uint64(s.LastCommitLSN), uint64(len(s.ATT)))
	for _, e := range s.ATT {
		b = appendWords(b, e.TxnID, uint64(e.LastLSN), uint64(e.BeginLSN))
	}
	return Record{Kind: KindStandby, Body: b}
}

// ParseStandby decodes a standby body; ok is false when it does not fit.
func ParseStandby(b []byte) (s Standby, ok bool) {
	if !fits(b, standbyHead, 3) {
		return s, false
	}
	s = Standby{Applied: wal.LSN(word(b, 0)), MaxTxn: word(b, 1), LastCommitWC: int64(word(b, 2)), LastCommitLSN: wal.LSN(word(b, 3))}
	for i := standbyHead; i < len(b)/8; i += 3 {
		s.ATT = append(s.ATT, wal.ATTEntry{TxnID: word(b, i), LastLSN: wal.LSN(word(b, i+1)), BeginLSN: wal.LSN(word(b, i+2))})
	}
	return s, true
}

// File is the one writer of a control file. It holds the live records in
// file order — the ckpt records of the index and the newest record of each
// other kind — and counts the dead ones on disk. whole is false when the
// file on disk is not the magic and exactly those records (missing, foreign,
// torn, or a failed write): the next write rewrites it.
type File struct {
	mu          sync.Mutex
	path        string
	sync, whole bool
	live        []Record
	dead        int
}

// Open reads the control file at path; its intact records are live. A
// missing, foreign or torn file is rewritten by the first write. With sync
// set, every write is synced.
func Open(path string, sync bool) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("control: %w", err)
	}
	recs, _, err := Decode(buf)
	f := &File{path: path, sync: sync, whole: err == nil}
	f.fold(recs)
	return f, nil
}

// fold makes recs, the file's next records, live: a record of a kind other
// than ckpt supersedes the one before it, which is usually a few back.
func (f *File) fold(recs []Record) {
	for _, r := range recs {
		for i := len(f.live) - 1; i >= 0 && r.Kind != KindCkpt; i-- {
			if f.live[i].Kind == r.Kind {
				f.live = slices.Delete(f.live, i, i+1)
				f.dead++
				break
			}
		}
		f.live = append(f.live, r)
	}
}

// Records returns the live records of kind k in file order: the index for
// KindCkpt, the newest record or none for the other kinds.
func (f *File) Records(k Kind) []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(f.live), func(r Record) bool { return r.Kind != k })
}

// Retain keeps live only the ckpt records whose end LSNs lie in [lo, hi]. A
// record below lo (its checkpoint fell below the log's truncation point)
// stays on disk until the next rewrite; one above hi (a checkpoint the chain
// from the boot record does not reach) makes the next write a rewrite.
func (f *File) Retain(lo, hi wal.LSN) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = slices.DeleteFunc(f.live, func(r Record) bool {
		switch {
		case r.Kind != KindCkpt:
			return false
		case wal.LSN(word(r.Body, 2)) < lo:
			f.dead++
		case wal.LSN(word(r.Body, 2)) > hi:
			f.whole = false
		default:
			return false
		}
		return true
	})
}

// Reset forgets every record: the file describes a data file that no longer
// exists. The next write rewrites it.
func (f *File) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live, f.dead, f.whole = nil, 0, false
}

// Add writes recs as one append.
func (f *File) Add(recs ...Record) error {
	return f.Append(func(wal.LSN) ([]Record, error) { return recs, nil })
}

// Append writes the records build returns as one append. build runs under
// the file's mutex, so writers append in the order of the state they
// capture; it must not call the File. It is given the newest live ckpt
// record's end LSN, which a ckpt record it returns must exceed. A file not
// whole, or whose dead records would outnumber its live ones, is rewritten
// with the live records instead.
func (f *File) Append(build func(lastCkpt wal.LSN) ([]Record, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	lastCkpt := wal.NilLSN
	for _, r := range slices.Backward(f.live) {
		if r.Kind == KindCkpt {
			lastCkpt = wal.LSN(word(r.Body, 2))
			break
		}
	}
	recs, err := build(lastCkpt)
	if err != nil || len(recs) == 0 {
		return err
	}
	f.fold(recs)
	if !f.whole || f.dead > len(f.live) {
		err = fsutil.AtomicWriteFile(f.path, Encode(f.live), f.sync)
		f.dead = 0
	} else {
		var fh *os.File
		if fh, err = os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0); err == nil {
			if _, err = fh.Write(Encode(recs)[len(magic):]); err == nil && f.sync {
				err = fh.Sync()
			}
			err = errors.Join(err, fh.Close())
		}
	}
	// A failed write may leave a torn frame a later append would follow:
	// rewrite the whole file next time.
	if f.whole = err == nil; err != nil {
		return fmt.Errorf("control: %w", err)
	}
	return nil
}
