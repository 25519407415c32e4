package engine

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzBootMeta: boot.meta is the first thing recovery reads. Parsing it never
// panics — with the CRC as found, or stamped to match the mutated bytes —
// and a sidecar that parses re-encodes to one that parses back to the
// same boot block; anything else is refused, and Open falls back to page 0.
// Seeds under testdata/fuzz are sidecars a checkpoint wrote: one in the
// pre-timeline 44-byte layout (block + CRC) and one carrying two forks.
func FuzzBootMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, _ = parseBootMeta(buf)
		if len(buf) < 4 {
			return
		}
		// Nearly every mutation fails the CRC; stamp a matching one so the
		// block and timeline decoders behind it see the mutated bytes too.
		body := buf[: len(buf)-4 : len(buf)-4]
		b, err := parseBootMeta(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			return
		}
		back, err := parseBootMeta(encodeBootMeta(b))
		if err != nil {
			t.Fatalf("boot block %+v re-encodes to a sidecar that does not parse: %v", b, err)
		}
		if !reflect.DeepEqual(back, b) {
			t.Fatalf("boot block %+v reads back as %+v", b, back)
		}
	})
}
