package core

import (
	"bytes"
	"testing"

	"repro/internal/core/place"
)

// TestTracedHeaderRoundTrip pins the flagTraced fields of a token frame:
// the trace context survives the wire, and the rest of the frame is the
// plain token's header and payload byte for byte.
func TestTracedHeaderRoundTrip(t *testing.T) {
	ids := idTable{}
	e := &envelope{Graph: testGraph(ids, "g"), CallOrigin: testNode(ids, "far")}
	plain := append(encodeEnvelopeHeader(e), 0x01, 0x02)
	e.TraceID = 0xdeadbeefcafe
	frame := append(appendToken(nil, e, place.Direct, -12345), 0x01, 0x02)
	if frame[0] != msgToken|flagTraced {
		t.Fatalf("kind byte = %#x, want msgToken|flagTraced (%#x)", frame[0], msgToken|flagTraced)
	}
	got, sentNs, err := decodeToken(frame, ids)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	defer putEnvelope(got)
	if got.TraceID != 0xdeadbeefcafe {
		t.Errorf("trace id = %#x, want %#x", got.TraceID, uint64(0xdeadbeefcafe))
	}
	if sentNs != -12345 {
		t.Errorf("sentNs = %d, want -12345", sentNs)
	}
	if rest := frame[len(frame)-len(plain)+1:]; !bytes.Equal(rest, plain[1:]) {
		t.Errorf("frame past the trace fields = %x, want the plain token's %x", rest, plain[1:])
	}
}

// TestTracedHeaderTruncation: a frame cut anywhere in its trace fields
// must fail to decode rather than yield a bogus context. The trace id
// forces a multi-byte uvarint so mid-varint cuts are exercised.
func TestTracedHeaderTruncation(t *testing.T) {
	ids := idTable{}
	e := &envelope{Graph: testGraph(ids, "g"), CallOrigin: testNode(ids, "far"), TraceID: 1 << 60}
	head := appendHead(nil, msgToken, place.Direct, e.FTStream, 0, e.TraceID, 1<<50)
	for n := 1; n <= len(head); n++ {
		if _, _, err := decodeToken(head[:n], ids); err == nil {
			t.Errorf("frame cut to %d bytes decoded without error", n)
		}
	}
	got, _, err := decodeToken(appendToken(nil, e, place.Direct, 1<<50), ids)
	if err != nil || got.TraceID != 1<<60 {
		t.Fatalf("full frame: %+v, err=%v", got, err)
	}
	putEnvelope(got)
}
