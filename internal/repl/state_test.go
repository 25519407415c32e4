package repl

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/wal"
)

// FuzzReplicaState: decoding replica.state never panics, and a state it reads
// writes back out to exactly the bytes it was read from; anything else is
// "unreadable state, full rescan". Seeds are replica.state files written by a
// replica checkpoint (under testdata/fuzz, one with a transaction in flight)
// and a CRC-valid file whose entry count is 1+2^61, which once wrapped the
// length check into an index-out-of-range panic.
func FuzzReplicaState(f *testing.F) {
	buf := encodeReplicaState(replicaState{Applied: 100, ATT: []wal.ATTEntry{{TxnID: 7, LastLSN: 90, BeginLSN: 20}}})
	n := len(replicaStateMagic)
	binary.LittleEndian.PutUint64(buf[n+32:], 1+1<<61)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
	f.Add(buf)
	f.Fuzz(func(t *testing.T, buf []byte) {
		st, ok := decodeReplicaState(buf)
		if !ok {
			return
		}
		if back := encodeReplicaState(st); !bytes.Equal(back, buf) {
			t.Fatalf("state %+v re-encodes to %d bytes that differ from the %d read", st, len(back), len(buf))
		}
	})
}
