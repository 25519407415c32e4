package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/catalog"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// FrameKind identifies a replication protocol message.
type FrameKind uint8

const (
	// KindSubscribe (replica → primary) opens a stream. From is the LSN the
	// replica wants shipping to resume at (the end of its local log copy
	// plus one; 1 for a replica starting from an empty directory).
	KindSubscribe FrameKind = 1
	// KindHello (primary → replica) acknowledges a subscription. Payload
	// carries the boot info (catalog roots, creation time) a fresh replica
	// needs — the one piece of primary state that was never logged. Durable
	// is the primary's flushed LSN at session start.
	KindHello FrameKind = 2
	// KindBatch (primary → replica) carries raw log frames. From is the LSN
	// of the first payload byte; the payload is CRC-checked as a unit on
	// top of the per-record CRCs inside it. Durable is the primary's
	// flushed LSN when the batch was cut; WallClock the primary's clock.
	KindBatch FrameKind = 3
	// KindHeartbeat (primary → replica) reports the primary's durable LSN
	// and clock while the log is idle, bounding how stale the replica's lag
	// observation can get.
	KindHeartbeat FrameKind = 4
	// KindAck (replica → primary) reports apply progress: From is the
	// replica's applied LSN, Durable its locally durable log end, WallClock
	// the commit time of the last transaction it applied.
	KindAck FrameKind = 5
	// KindError (primary → replica) aborts a session; Payload is a message.
	// The canonical case: the subscription point predates the primary's
	// retention truncation and the replica must be reseeded from a backup.
	// From carries an error class (errClassGeneric / errClassTimeline —
	// the field is otherwise unused on errors), so the replica can surface
	// mechanical timeline-history refusals as ErrTimelineDiverged.
	KindError FrameKind = 6
	// KindStatus (either direction) requests (empty payload) or carries
	// (JSON payload) the shipper's per-subscriber status — the wire surface
	// behind `asofctl repl-status`.
	KindStatus FrameKind = 7
	// KindPromoted (upstream → replica) fences a cascade hop at promotion:
	// the standby this replica was subscribed to has been promoted, its log
	// forks after From (the promotion point), and no byte past the fork
	// will ever be shipped on this session. Payload (when present) is the
	// promoted node's new (timeline, history) identity. The replica's Run
	// returns ErrUpstreamPromoted; the operator (or orchestrator) then
	// re-points the replica at the promoted node (an at-or-behind-fork
	// replica resubscribes exactly; the timeline handshake verifies it
	// mechanically) or reseeds it.
	KindPromoted FrameKind = 8
)

// KindError frames carry an error class in the otherwise-unused From field.
const (
	errClassGeneric wal.LSN = 0
	// errClassTimeline marks a mechanical timeline-history refusal: the
	// subscriber's position is not an ancestor of the server's lineage.
	// Retrying the same subscription can never succeed — the node must be
	// re-pointed at a compatible server or reseeded.
	errClassTimeline wal.LSN = 1
)

func (k FrameKind) String() string {
	switch k {
	case KindSubscribe:
		return "subscribe"
	case KindHello:
		return "hello"
	case KindBatch:
		return "batch"
	case KindHeartbeat:
		return "heartbeat"
	case KindAck:
		return "ack"
	case KindError:
		return "error"
	case KindStatus:
		return "status"
	case KindPromoted:
		return "promoted"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is one replication protocol message. The zero value of unused
// fields encodes compactly on the TCP codec and costs nothing in process.
type Frame struct {
	Kind      FrameKind
	From      wal.LSN
	Durable   wal.LSN
	WallClock int64
	Payload   []byte
}

// batchCRC is the whole-batch checksum: shipped bytes are CRC-checked as a
// unit so a corrupted batch is rejected before any of its records (whose
// individual CRCs could by chance still validate a prefix) reach the
// replica's log.
func batchCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// Conn is one bidirectional replication session. Implementations must
// support one concurrent Send and one concurrent Recv (the shipper sends
// from its stream loop while a reader goroutine drains acks, and vice
// versa on the replica).
type Conn interface {
	Send(f *Frame) error
	Recv() (*Frame, error)
	Close() error
}

// ErrClosed is returned by pipe operations after either end closes.
var ErrClosed = errors.New("repl: connection closed")

// pipeConn is the in-process Conn: a pair of buffered frame channels.
// Frames cross by reference — senders must not reuse payload buffers.
type pipeConn struct {
	send chan<- *Frame
	recv <-chan *Frame

	closeOnce sync.Once
	closed    chan struct{}
	peer      *pipeConn
}

// Pipe returns the two ends of an in-process replication session.
func Pipe() (primary, replica Conn) {
	a2b := make(chan *Frame, 16)
	b2a := make(chan *Frame, 16)
	a := &pipeConn{send: a2b, recv: b2a, closed: make(chan struct{})}
	b := &pipeConn{send: b2a, recv: a2b, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *pipeConn) Send(f *Frame) error {
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	case c.send <- f:
		return nil
	}
}

func (c *pipeConn) Recv() (*Frame, error) {
	select {
	case f := <-c.recv:
		return f, nil
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peer.closed:
		// Drain frames already in flight before reporting the close.
		select {
		case f := <-c.recv:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// --- boot info payload (KindHello) ---

// bootInfo is the unlogged primary state a fresh replica needs: the catalog
// roots (written directly to the boot page at creation), the database
// creation time, and the server's full lineage, which the replica adopts as
// the identity of every byte it will ingest on this session.
type bootInfo struct {
	Roots     catalog.Roots
	CreatedAt int64
	TruncLSN  wal.LSN
	Lineage   timelineInfo
}

// bootInfoFixed is the size of the hello's fields before its lineage.
const bootInfoFixed = 28

func encodeBootInfo(b bootInfo) []byte {
	buf := make([]byte, bootInfoFixed, bootInfoFixed+timelineInfoSize(b.Lineage))
	binary.LittleEndian.PutUint32(buf[0:], uint32(b.Roots.Tables))
	binary.LittleEndian.PutUint32(buf[4:], uint32(b.Roots.Names))
	binary.LittleEndian.PutUint32(buf[8:], uint32(b.Roots.Columns))
	binary.LittleEndian.PutUint64(buf[12:], uint64(b.CreatedAt))
	binary.LittleEndian.PutUint64(buf[20:], uint64(b.TruncLSN))
	return appendTimelineInfo(buf, b.Lineage)
}

func decodeBootInfo(buf []byte) (bootInfo, error) {
	if len(buf) < bootInfoFixed {
		return bootInfo{}, fmt.Errorf("repl: hello payload is %d bytes", len(buf))
	}
	b := bootInfo{
		Roots: catalog.Roots{
			Tables:  page.ID(binary.LittleEndian.Uint32(buf[0:])),
			Names:   page.ID(binary.LittleEndian.Uint32(buf[4:])),
			Columns: page.ID(binary.LittleEndian.Uint32(buf[8:])),
		},
		CreatedAt: int64(binary.LittleEndian.Uint64(buf[12:])),
		TruncLSN:  wal.LSN(binary.LittleEndian.Uint64(buf[20:])),
	}
	var err error
	if b.Lineage, err = decodeTimelineInfo(buf[bootInfoFixed:]); err != nil {
		return bootInfo{}, fmt.Errorf("repl: hello payload: %w", err)
	}
	return b, nil
}

// --- wire codec (shared by the TCP transport) ---

// wire layout: kind u8 | from u64 | durable u64 | wallclock i64 |
// payloadLen u32 | payloadCRC u32 | payload. The CRC covers the payload;
// header corruption surfaces as a length/kind sanity failure: ReadFrame
// refuses a kind outside the FrameKind set before it reads the payload.
const wireHeader = 1 + 8 + 8 + 8 + 4 + 4

// maxWirePayload bounds a frame on the wire; batches are cut well below it.
const maxWirePayload = 64 << 20

// WriteFrame encodes f onto w.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [wireHeader]byte
	hdr[0] = byte(f.Kind)
	binary.LittleEndian.PutUint64(hdr[1:], uint64(f.From))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(f.Durable))
	binary.LittleEndian.PutUint64(hdr[17:], uint64(f.WallClock))
	binary.LittleEndian.PutUint32(hdr[25:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[29:], batchCRC(f.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame decodes one frame from r.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [wireHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] < byte(KindSubscribe) || hdr[0] > byte(KindPromoted) {
		return nil, fmt.Errorf("repl: unknown frame kind %d", hdr[0])
	}
	f := &Frame{
		Kind:      FrameKind(hdr[0]),
		From:      wal.LSN(binary.LittleEndian.Uint64(hdr[1:])),
		Durable:   wal.LSN(binary.LittleEndian.Uint64(hdr[9:])),
		WallClock: int64(binary.LittleEndian.Uint64(hdr[17:])),
	}
	n := binary.LittleEndian.Uint32(hdr[25:])
	wantCRC := binary.LittleEndian.Uint32(hdr[29:])
	if n > maxWirePayload {
		return nil, fmt.Errorf("repl: implausible frame payload %d bytes", n)
	}
	// The payload grows as its bytes arrive, a batch at a time, so a
	// corrupt length costs no more memory than the stream holds.
	for at := 0; at < int(n); at = len(f.Payload) {
		f.Payload = append(f.Payload, make([]byte, min(int(n)-at, batchBytes))...)
		if _, err := io.ReadFull(r, f.Payload[at:]); err != nil {
			return nil, err
		}
	}
	if batchCRC(f.Payload) != wantCRC {
		return nil, fmt.Errorf("repl: frame payload checksum mismatch (%s)", f.Kind)
	}
	return f, nil
}
