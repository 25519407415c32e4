package repl

import (
	"bytes"
	"testing"
)

// FuzzWireFrame: ReadFrame is what a TCP session reads first from a peer.
// Reading a stream of frames never panics, and every frame it accepts
// re-encodes through WriteFrame to exactly the bytes it was read from; a
// hello's boot info and a promotion fence's timeline info decode without
// panicking. Seeds under testdata/fuzz are the frames a real shipper session
// wrote in each direction, and a cascade's promotion fence.
func FuzzWireFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		r := bytes.NewReader(buf)
		for {
			at := len(buf) - r.Len()
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, fr); err != nil {
				t.Fatal(err)
			}
			if read := buf[at : len(buf)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
				t.Fatalf("%s frame of %d bytes re-encodes to %d bytes that differ", fr.Kind, len(read), out.Len())
			}
			switch fr.Kind {
			case KindHello:
				_, _ = decodeBootInfo(fr.Payload)
			case KindPromoted:
				_, _ = decodeTimelineInfo(fr.Payload)
			}
		}
	})
}
