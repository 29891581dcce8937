package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// --- wire format ----------------------------------------------------------

// testGraph and testNode declare a graph (of 256 nodes) and a node by name
// alone into ids, for the codec tests: what the decoders resolve the ids
// they read through, and what those ids resolve to.
func testGraph(ids idTable, name string) *Flowgraph {
	id := ft.NameID(idGraph, name)
	if ids[id].g == nil {
		ids[id] = declared{g: &Flowgraph{name: name, id: id, nodes: make([]*GraphNode, 256)}}
	}
	return ids[id].g
}

func testNode(ids idTable, name string) *Runtime {
	id := ft.NameID(idNode, name)
	if ids[id].rt == nil {
		ids[id] = declared{rt: &Runtime{name: name, id: id}}
	}
	return ids[id].rt
}

// sameOnWire compares what the envelope codec carries — the header fields,
// the frame stack by value and the payload bytes — and nothing of how an
// envelope stores them.
func sameOnWire(a, b *envelope) bool {
	return a.Graph == b.Graph && a.Node == b.Node && a.Thread == b.Thread &&
		a.CallID == b.CallID && a.CallOrigin == b.CallOrigin &&
		a.LastWorker == b.LastWorker && a.CreditNode == b.CreditNode &&
		slices.Equal(a.frames(), b.frames()) && bytes.Equal(a.Payload, b.Payload)
}

// withFrames sets e's frame stack to a copy of fs and returns e.
func withFrames(e *envelope, fs ...frame) *envelope {
	copy(e.newFrames(len(fs)), fs)
	return e
}

// encodeEnvelopeHeader, encodeGroupEnd, encodeAck and encodeResult encode
// a plain message (no flag) into a fresh buffer.
func encodeEnvelopeHeader(e *envelope) []byte { return appendToken(nil, e, place.Direct, 0) }
func encodeGroupEnd(m *groupEndMsg) []byte    { return appendGroupEnd(nil, m, place.Direct) }
func encodeAck(m ackMsg) []byte               { return appendAck(nil, m) }
func encodeResult(m *resultMsg) []byte {
	return append(appendResultHeader(nil, m.CallID), m.Payload...)
}

func TestEnvelopeHeaderRoundTrip(t *testing.T) {
	ids := idTable{}
	for _, nframes := range []int{0, 2, inlineFrames, inlineFrames + 1, 3 * inlineFrames} {
		in := &envelope{
			Graph:      testGraph(ids, "g"),
			Node:       7,
			Thread:     3,
			CallID:     991,
			CallOrigin: testNode(ids, "nodeX"),
			LastWorker: 2,
			CreditNode: 5,
		}
		fs := in.newFrames(nframes)
		for i := range fs {
			fs[i] = frame{GroupID: uint64(42 + i), Index: 9 - i, Origin: testNode(ids, "node"+string(rune('A'+i))), MergeThread: i % 2}
		}
		payload := []byte{0xde, 0xad, 0xbe, 0xef}
		buf := append(encodeEnvelopeHeader(in), payload...)
		if buf[0] != msgToken {
			t.Fatalf("kind byte %d", buf[0])
		}
		out, _, err := decodeToken(buf, ids)
		if err != nil {
			t.Fatal(err)
		}
		in.Payload = payload
		if !sameOnWire(in, out) {
			t.Fatalf("%d frames: got %+v want %+v", nframes, out, in)
		}
		// The decoder fills the envelope's own array while the stack fits.
		if inline := nframes > 0 && &out.frames()[0] == &out.inline[0]; inline != (nframes > 0 && nframes <= inlineFrames) {
			t.Errorf("%d frames decoded into the inline array: %v", nframes, inline)
		}
		putEnvelope(out)
	}
}

func TestQuickEnvelopeRoundTrip(t *testing.T) {
	ids := idTable{}
	f := func(graph string, node uint8, thread int16, callID uint64, origin string, lw, cn int8, gid uint64, idx uint16, fo string, mt int8, payload []byte) bool {
		in := &envelope{
			Graph:      testGraph(ids, graph),
			Node:       int(node),
			Thread:     int(thread),
			CallID:     callID,
			CallOrigin: testNode(ids, origin),
			LastWorker: int(lw),
			CreditNode: int(cn),
		}
		withFrames(in, frame{GroupID: gid, Index: int(idx), Origin: testNode(ids, fo), MergeThread: int(mt)})
		buf := append(encodeEnvelopeHeader(in), payload...)
		out, _, err := decodeToken(buf, ids)
		if err != nil {
			return false
		}
		in.Payload = payload
		return sameOnWire(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupEndRoundTrip(t *testing.T) {
	ids := idTable{}
	in := &groupEndMsg{Graph: testGraph(ids, "g"), Node: 4, Thread: 2, GroupID: 77, Total: 1234, CallID: 9}
	buf := encodeGroupEnd(in)
	if buf[0] != msgGroupEnd {
		t.Fatal("kind byte wrong")
	}
	out, err := decodeGroupEnd(buf, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

func TestAckRoundTrip(t *testing.T) {
	in := ackMsg{GroupID: 901, Worker: -1, RouteNode: 3}
	buf := encodeAck(in)
	out, err := decodeAck(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &resultMsg{CallID: 5, Payload: []byte("xyz")}
	buf := encodeResult(in)
	out, err := decodeResult(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if out.CallID != 5 || string(out.Payload) != "xyz" {
		t.Fatalf("got %+v", out)
	}
}

func TestDecodeTruncatedMessages(t *testing.T) {
	ids := idTable{}
	in := withFrames(&envelope{Graph: testGraph(ids, "graph-name"), CallOrigin: testNode(ids, "origin")}, frame{Origin: testNode(ids, "o")})
	full := encodeEnvelopeHeader(in)
	for cut := 1; cut < len(full)-1; cut++ {
		if _, _, err := decodeToken(full[:cut], ids); err == nil {
			// Some prefixes decode "successfully" as an envelope with fewer
			// fields set only if the cut happens to land exactly at a field
			// boundary that satisfies the full structure — not possible here
			// because the frame count promises more data.
			t.Fatalf("decoding %d/%d bytes unexpectedly succeeded", cut, len(full))
		}
	}
}

func TestTokTypeValidation(t *testing.T) {
	type okTok struct{ X int }
	if _, err := tokType(&okTok{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tokType(nil); err == nil {
		t.Fatal("nil token accepted")
	}
	if _, err := tokType(okTok{}); err == nil {
		t.Fatal("non-pointer token accepted")
	}
	if _, err := tokType(new(int)); err == nil {
		t.Fatal("pointer to non-struct accepted")
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		KindLeaf:   "leaf",
		KindSplit:  "split",
		KindMerge:  "merge",
		KindStream: "stream",
		OpKind(99): "OpKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q want %q", int(k), got, want)
		}
	}
}
