package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core/ft"
)

// randEnvelope builds an envelope with pseudorandom routing fields and a
// payload of the given size.
func randEnvelope(rng *rand.Rand, ids idTable, payloadLen int) *envelope {
	p := make([]byte, payloadLen)
	rng.Read(p)
	return &envelope{
		Graph:      testGraph(ids, fmt.Sprintf("g%d", rng.Intn(3))),
		Node:       rng.Intn(8),
		Thread:     rng.Intn(16),
		CallID:     rng.Uint64() >> 16,
		CallOrigin: testNode(ids, fmt.Sprintf("node%d", rng.Intn(4))),
		LastWorker: rng.Intn(4) - 1,
		CreditNode: rng.Intn(4) - 1,
		Frames: []frame{{
			GroupID:     rng.Uint64() >> 32,
			Index:       rng.Intn(1 << 12),
			Origin:      testNode(ids, fmt.Sprintf("node%d", rng.Intn(4))),
			MergeThread: rng.Intn(8),
		}},
		Payload: p,
	}
}

type batchEntry struct {
	kind   byte
	stream ft.Stream
	seq    uint64
	env    *envelope
	end    *groupEndMsg
}

// encodeBatchOf runs the entries' single frames through a batchEncoder
// exactly as the link-layer batcher does.
func encodeBatchOf(entries []batchEntry) []byte {
	var be batchEncoder
	for _, e := range entries {
		var frame []byte
		switch e.kind {
		case msgToken:
			frame = append(encodeEnvelopeHeader(e.env), e.env.Payload...)
		case msgTokenFT:
			env := *e.env
			env.FTStream, env.FTSeq = e.stream, e.seq
			frame = append(appendTokenFT(nil, &env), e.env.Payload...)
		case msgGroupEnd:
			frame = appendGroupEnd(nil, e.end)
		case msgGroupEndFT:
			end := *e.end
			end.FTStream, end.FTSeq = e.stream, e.seq
			frame = appendGroupEndFT(nil, &end)
		}
		n := entryHead(frame)
		be.add(frame[:n], frame[n:])
	}
	return be.appendFrame(nil)
}

// TestBatchRoundTripOracle: a batch of N entries must decode to exactly the
// envelopes and group-ends that N individual frames would have produced —
// same bodies byte for byte, same FT stamps.
func TestBatchRoundTripOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ids := idTable{}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		entries := make([]batchEntry, n)
		for i := range entries {
			e := batchEntry{stream: ft.Stream{Sender: 1 + uint64(rng.Intn(3)), In: rng.Uint64()}, seq: rng.Uint64() >> 40}
			switch rng.Intn(4) {
			case 0:
				e.kind = msgToken
				e.env = randEnvelope(rng, ids, rng.Intn(512))
			case 1:
				e.kind = msgTokenFT
				e.env = randEnvelope(rng, ids, rng.Intn(512))
			case 2:
				e.kind = msgGroupEnd
				e.end = &groupEndMsg{Graph: testGraph(ids, "g"), Node: rng.Intn(4), Thread: rng.Intn(4), GroupID: rng.Uint64() >> 32, Total: rng.Intn(100), CallID: rng.Uint64() >> 32}
			case 3:
				e.kind = msgGroupEndFT
				e.end = &groupEndMsg{Graph: testGraph(ids, "g2"), Node: 1, Thread: 2, GroupID: 7, Total: 3, CallID: 11}
			}
			entries[i] = e
		}
		frame := encodeBatchOf(entries)
		if frame[0] != msgBatch {
			t.Fatalf("kind byte %d", frame[0])
		}
		body, err := decodeBatchFrame(frame[1:])
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = decodeBatch(body, func(kind byte, stream ft.Stream, seq uint64, entryBody []byte) error {
			want := entries[i]
			i++
			if kind != want.kind {
				return fmt.Errorf("entry %d: kind %d want %d", i-1, kind, want.kind)
			}
			if wireKinds[kind].sequenced && (stream != want.stream || seq != want.seq) {
				return fmt.Errorf("entry %d: stamp (%v,%d) want (%v,%d)", i-1, stream, seq, want.stream, want.seq)
			}
			switch kind {
			case msgToken, msgTokenFT:
				// Oracle: the entry body must equal the single-frame encoding
				// minus its prefix, and decode to the same envelope.
				var single []byte
				if kind == msgTokenFT {
					env := *want.env
					env.FTStream, env.FTSeq = want.stream, want.seq
					single = appendTokenFT(nil, &env)
					single = append(single, want.env.Payload...)
					single = single[len(appendFTStamp([]byte{msgTokenFT}, want.stream, want.seq)):]
				} else {
					single = encodeEnvelopeHeader(want.env)
					single = append(single, want.env.Payload...)
					single = single[1:] // kind byte
				}
				if !bytes.Equal(entryBody, single) {
					return fmt.Errorf("entry %d: body differs from single-frame encoding", i-1)
				}
				got, derr := decodeEnvelope(entryBody, ids)
				if derr != nil {
					return derr
				}
				if !sameOnWire(got, want.env) {
					return fmt.Errorf("entry %d: envelope %+v want %+v", i-1, got, want.env)
				}
			default:
				single := appendGroupEndBody(nil, want.end)
				if !bytes.Equal(entryBody, single) {
					return fmt.Errorf("entry %d: group-end body differs", i-1)
				}
				got, derr := decodeGroupEnd(entryBody, ids)
				if derr != nil {
					return derr
				}
				if !reflect.DeepEqual(got, want.end) {
					return fmt.Errorf("entry %d: group-end %+v want %+v", i-1, got, want.end)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if i != n {
			t.Fatalf("trial %d: decoded %d entries, want %d", trial, i, n)
		}
	}
}

// TestBatchDecodeHostile hardens the decoder against frames that lie about
// counts and lengths: nothing may allocate proportionally to a claimed
// count, and every lie must surface as an error rather than a panic.
func TestBatchDecodeHostile(t *testing.T) {
	hostile := [][]byte{
		{},     // empty frame
		{0xff}, // unknown flags
		// Giant claimed entry count with no bytes behind it.
		binary.AppendUvarint(nil, 1<<40),
		// One entry claiming a body far past the frame end.
		func() []byte {
			b := binary.AppendUvarint(nil, 1) // one entry
			b = append(b, msgToken)
			b = binary.AppendUvarint(b, 1<<30) // body length lie
			return append(b, 1, 2, 3)
		}(),
		// FT entry whose stamp stops inside the sender stream.
		append(binary.AppendUvarint(nil, 1), msgTokenFT, 1, 2, 3),
		// FT entry whose stamp stops inside the sequence number.
		func() []byte {
			b := binary.AppendUvarint(nil, 1)
			b = append(b, msgTokenFT)
			b = append(b, make([]byte, 16)...)
			return append(b, 0x80)
		}(),
		// Non-batchable kind inside a batch.
		func() []byte {
			b := binary.AppendUvarint(nil, 1)
			b = append(b, msgResult)
			return binary.AppendUvarint(b, 0)
		}(),
		// Trailing garbage after the declared entries.
		func() []byte {
			b := binary.AppendUvarint(nil, 0)
			return append(b, 0xde, 0xad)
		}(),
	}
	for i, h := range hostile {
		if i == 0 {
			if _, err := decodeBatchFrame(h); err == nil {
				t.Errorf("case %d: empty frame accepted", i)
			}
			continue
		}
		if i == 1 {
			if _, err := decodeBatchFrame(h); err == nil {
				t.Errorf("case %d: unknown flags accepted", i)
			}
			continue
		}
		err := decodeBatch(h, func(byte, ft.Stream, uint64, []byte) error { return nil })
		if err == nil {
			t.Errorf("case %d: hostile body accepted", i)
		}
	}

	// Flag bit 0 once announced a DEFLATE body behind a claimed raw length,
	// and the decoder allocated the claim before inflating: these 12 bytes
	// bought 1 GiB. Every flag bit is now refused before anything is read.
	var before, after runtime.MemStats
	frame := binary.AppendUvarint([]byte{msgBatch, 1}, 1<<30)
	frame = append(frame, 1, 2, 3, 4, 5)
	runtime.ReadMemStats(&before)
	_, err := decodeBatchFrame(frame[1:])
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unknown batch flags 0x1") {
		t.Errorf("frame with flag bit 0 set: err = %v, want unknown batch flags 0x1", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("decoding a %d-byte hostile batch frame allocated %d bytes", len(frame), grew)
	}

	// An envelope header claiming more frames than its bytes could encode
	// (every frame is at least minFrameLen bytes) must fail before the frame
	// slice is allocated: 30 bytes must not buy a 2 MB allocation.
	ids := idTable{}
	hdr := appendEnvelopeBody(nil, &envelope{Graph: testGraph(ids, "g"), CallOrigin: testNode(ids, "n")})
	lie := appendInt(hdr[:len(hdr)-1], 1<<16) // replace the trailing zero frame count
	lie = append(lie, make([]byte, 8)...)
	runtime.ReadMemStats(&before)
	if _, err := decodeEnvelope(lie, ids); err == nil {
		t.Error("envelope with a frame count past its own length accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding a %d-byte hostile envelope allocated %d bytes", len(lie), grew)
	}
}
