package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// frozenWireKinds is the golden name→number table of the engine's wire
// kinds. These numbers are the wire format: a mixed-version cluster during
// a rolling restart decodes frames by them, and recorded checkpoint/replay
// streams (PR 5) outlive any single binary. An existing kind must NEVER be
// renumbered or reused; new kinds take fresh numbers and a new row here.
var frozenWireKinds = map[string]byte{
	"msgToken":      1,
	"msgGroupEnd":   2,
	"msgAck":        3,
	"msgResult":     4,
	"msgMigrate":    5,
	"msgFence":      6,
	"msgCheckpoint": 7,
	"msgReplay":     8,
	"msgDeath":      9,
	"msgTokenFT":    10,
	"msgGroupEndFT": 11,
	"msgCut":        12,
	"msgPing":       13,
	"msgBatch":      14,
	"msgTraced":     15,
	"msgForwarded":  16,
}

func TestWireKindNumbersFrozen(t *testing.T) {
	got := map[string]byte{
		"msgToken":      msgToken,
		"msgGroupEnd":   msgGroupEnd,
		"msgAck":        msgAck,
		"msgResult":     msgResult,
		"msgMigrate":    msgMigrate,
		"msgFence":      msgFence,
		"msgCheckpoint": msgCheckpoint,
		"msgReplay":     msgReplay,
		"msgDeath":      msgDeath,
		"msgTokenFT":    msgTokenFT,
		"msgGroupEndFT": msgGroupEndFT,
		"msgCut":        msgCut,
		"msgPing":       msgPing,
		"msgBatch":      msgBatch,
		"msgTraced":     msgTraced,
		"msgForwarded":  msgForwarded,
	}
	for name, want := range frozenWireKinds {
		if got[name] != want {
			t.Errorf("%s = %d, frozen as %d: wire kind numbers are the wire format — peers of other versions and recorded replay streams decode by number. Revert the renumbering; a changed meaning needs a NEW kind number.", name, got[name], want)
		}
	}
	byNum := make(map[byte]string, len(got))
	for name, n := range got {
		if other, dup := byNum[n]; dup {
			t.Errorf("%s and %s share number %d: every wire kind needs a distinct number", name, other, n)
		}
		byNum[n] = name
	}
}

// TestWireKindTableComplete parses wire.go and fails on any msg* constant
// missing from the frozen table, so a new kind cannot ship unfrozen.
func TestWireKindTableComplete(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				n := name.Name
				if !strings.HasPrefix(n, "msg") || len(n) <= 3 || n[3] < 'A' || n[3] > 'Z' {
					continue
				}
				found++
				if _, ok := frozenWireKinds[n]; !ok {
					t.Errorf("wire kind %s is not in frozenWireKinds: add it with its (new, never recycled) number so the wire format stays auditable", n)
				}
			}
		}
	}
	if found != len(frozenWireKinds) {
		t.Errorf("wire.go declares %d msg* kinds, frozen table has %d: keep them in lockstep (kinds may be added, never removed — old streams still carry them)", found, len(frozenWireKinds))
	}
}

// TestFTStampLayout pins the stamp of a sequenced token or group-end: the
// kind byte with flagStamped (0x20) set, the stream's Sender and In as 8
// little-endian bytes each, then the sequence as a uvarint. A cut leads
// with the same stamp behind its plain kind byte.
func TestFTStampLayout(t *testing.T) {
	stream := ft.Stream{Sender: 0x0102030405060708, In: 0x1112131415161718}
	want := []byte{0, 8, 7, 6, 5, 4, 3, 2, 1, 0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, 0xac, 0x02}
	g, n := &Flowgraph{}, &Runtime{}
	for kind, frame := range map[byte][]byte{
		0x21:   appendToken(nil, &envelope{Graph: g, CallOrigin: n, FTStream: stream, FTSeq: 300}, place.Direct, 0),
		0x22:   appendGroupEnd(nil, &groupEndMsg{Graph: g, FTStream: stream, FTSeq: 300}, place.Direct),
		msgCut: appendCut(nil, cutMsg{Stream: stream, Seq: 300}),
	} {
		want[0] = kind
		if !bytes.HasPrefix(frame, want) {
			t.Errorf("kind %d frame starts % x, want % x", kind, frame[:min(len(frame), len(want))], want)
		}
	}
}

// TestHeaderLayout pins the token header, the group-end and the ack byte for
// byte, and a token with every flag set. A graph or node travels as its id
// (ft.NameID of a kind byte and its name) in 8 little-endian bytes, the
// fixed-width fields first; everything else is a varint. A dps-perf ring_1k
// hop's header (graph "ring", call origin and split on "n0", one group
// frame, a call id above 1<<63) is 45 bytes; it was 32 while the header
// carried the names.
func TestHeaderLayout(t *testing.T) {
	g := &Flowgraph{id: 0x0102030405060708}
	origin, split := &Runtime{id: 0x1112131415161718}, &Runtime{id: 0x2122232425262728}
	env := withFrames(&envelope{Graph: g, Node: 2, Thread: 1, CallID: 300, CallOrigin: origin, LastWorker: -1, CreditNode: 3},
		frame{GroupID: 7, Index: 64, Origin: split, MergeThread: 0})
	want := []byte{msgToken,
		8, 7, 6, 5, 4, 3, 2, 1, // graph id
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // call origin id
		4, 2, 0xac, 0x02, 1, 6, // node, thread, call id, last worker, credit node (zig-zag but the call id)
		2,                                              // one frame
		0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, // its origin id
		7, 0x80, 0x01, 0, // group id, index, merge thread
	}
	if got := encodeEnvelopeHeader(env); !bytes.Equal(got, want) {
		t.Errorf("token header\n got % x\nwant % x", got, want)
	}
	// The flags' fields sit between the kind byte and the same header.
	env.FTStream, env.FTSeq, env.TraceID = ft.Stream{Sender: 0x3132333435363738, In: 0x4142434445464748}, 300, 42
	flagged := append([]byte{0xe1, // msgToken | flagStamped | flagTraced | flagForwarded
		0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31, // stream sender
		0x48, 0x47, 0x46, 0x45, 0x44, 0x43, 0x42, 0x41, // stream in
		0xac, 0x02, // sequence
		42, 0xd0, 0x0f, // trace id, send clock 1000 (zig-zag)
	}, want[1:]...)
	if got := appendToken(nil, env, place.Forwarded, 1000); !bytes.Equal(got, flagged) {
		t.Errorf("stamped, traced and forwarded token\n got % x\nwant % x", got, flagged)
	}
	end := &groupEndMsg{Graph: g, Node: 3, Thread: 1, GroupID: 7, Total: 64, CallID: 300}
	want = []byte{msgGroupEnd, 8, 7, 6, 5, 4, 3, 2, 1, 6, 2, 7, 0x80, 0x01, 0xac, 0x02}
	if got := encodeGroupEnd(end); !bytes.Equal(got, want) {
		t.Errorf("group-end\n got % x\nwant % x", got, want)
	}
	want = []byte{msgAck, 7, 1, 4}
	if got := encodeAck(ackMsg{GroupID: 7, Worker: -1, RouteNode: 2}); !bytes.Equal(got, want) {
		t.Errorf("ack\n got % x\nwant % x", got, want)
	}
}
