package repl

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// FuzzWireFrame: ReadFrame is what a TCP session reads first from a peer.
// Reading a stream of frames never panics, and every frame it accepts
// re-encodes through WriteFrame to exactly the bytes it was read from; so
// does every hello's boot info and every subscribe's and promotion fence's
// timeline info that decodes. Seeds under testdata/fuzz are the frames a real
// shipper session wrote in each direction, and a cascade's promotion fence.
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
			var again []byte
			switch fr.Kind {
			case KindHello:
				if b, err := decodeBootInfo(fr.Payload); err == nil {
					again = encodeBootInfo(b)
				}
			case KindSubscribe, KindPromoted:
				if ti, err := decodeTimelineInfo(fr.Payload); err == nil {
					again = appendTimelineInfo(nil, ti)
				}
			}
			if again != nil && !bytes.Equal(again, fr.Payload) {
				t.Fatalf("%s payload %x re-encodes to %x", fr.Kind, fr.Payload, again)
			}
		}
	})
}

// TestHandshakePayloadsStrict: a hello or subscribe payload decodes only
// when it is exactly what its encoder writes — a lineage naming timeline 1
// or later, and no byte after the fork list.
func TestHandshakePayloadsStrict(t *testing.T) {
	info := bootInfo{
		Roots:     catalog.Roots{Tables: 2, Names: 3, Columns: 4},
		CreatedAt: 1e18,
		TruncLSN:  77,
		Lineage:   timelineInfo{TLI: 2, History: wal.TimelineHistory{{TLI: 1, End: 900}}},
	}
	hello := encodeBootInfo(info)
	if got, err := decodeBootInfo(hello); err != nil || !reflect.DeepEqual(got, info) {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	for name, payload := range map[string][]byte{
		"one trailing byte": append(append([]byte(nil), hello...), 0),
		"no lineage":        hello[:bootInfoFixed],
		"timeline 0":        encodeBootInfo(bootInfo{Roots: info.Roots}),
	} {
		if _, err := decodeBootInfo(payload); err == nil {
			t.Errorf("hello with %s decoded", name)
		}
	}
	sub := appendTimelineInfo(nil, info.Lineage)
	for name, payload := range map[string][]byte{
		"one trailing byte": append(append([]byte(nil), sub...), 0),
		"no lineage":        nil,
		"timeline 0":        appendTimelineInfo(nil, timelineInfo{}),
	} {
		if _, err := decodeTimelineInfo(payload); err == nil {
			t.Errorf("subscribe with %s decoded", name)
		}
	}
}
