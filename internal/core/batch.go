package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core/ft"
)

// Batch frame codec (Config.Batch; the batcher itself lives in link.go).
//
// A batch frame coalesces tokens and group-ends bound for one destination
// node into a single transport frame:
//
//	[msgBatch][flags]                       — flags is 0; a frame with any
//	                                          bit set is refused
//	body:
//	  uvarint nentries
//	  per entry:
//	    kind byte                           — a kind whose table row has an
//	                                          entry function (kinds.go)
//	    sequenced kinds only: the FT stamp — 16 bytes of sender stream,
//	                                          uvarint seq (appendFTStamp)
//	    uvarint bodyLen, bodyLen bytes      — the message body WITHOUT its
//	                                          kind and stamp
//
// Entry bodies reuse the existing encodings byte for byte —
// a token entry is appendEnvelopeBody + serialized payload, a group-end
// entry is appendGroupEndBody — so a batch of N entries decodes to exactly
// the same messages as N individual frames.

// maxBatchEntries bounds a claimed entry count before it is validated
// against the bytes present.
const maxBatchEntries = 1 << 20

// batchEncoder accumulates entries of one batch frame. The zero value is
// ready; reset() recycles it between flushes.
type batchEncoder struct {
	entries []byte // encoded entries section
	n       int    // entry count
	tokens  int    // token entries (stats: tokens per frame)
}

func (be *batchEncoder) reset() {
	be.entries = be.entries[:0]
	be.n = 0
	be.tokens = 0
}

func (be *batchEncoder) empty() bool { return be.n == 0 }

// size approximates the frame size so the batcher can bound it.
func (be *batchEncoder) size() int { return len(be.entries) }

// add appends one entry from the single frame of a batchable kind: head is
// the frame's kind byte and, for a sequenced kind, its FT stamp; body is the
// rest of the frame. Both are copied.
func (be *batchEncoder) add(head, body []byte) {
	be.entries = append(be.entries, head...)
	be.entries = binary.AppendUvarint(be.entries, uint64(len(body)))
	be.entries = append(be.entries, body...)
	be.n++
	if head[0] == msgToken || head[0] == msgTokenFT {
		be.tokens++
	}
}

// entryHead is the length of a single frame's kind byte and, for a
// sequenced kind, FT stamp: what its batch entry carries ahead of the body.
func entryHead(frame []byte) int {
	if wireKinds[frame[0]].sequenced {
		return len(frame) - len(skipFTStamp(frame[1:]))
	}
	return 1
}

// frameLen is the length of the frame appendFrame assembles.
func (be *batchEncoder) frameLen() int {
	return 2 + (bits.Len64(uint64(be.n)|1)+6)/7 + len(be.entries)
}

// appendFrame assembles the full wire frame into buf. The body assembles
// straight into the frame buffer — header and entries are never
// concatenated anywhere else first.
func (be *batchEncoder) appendFrame(buf []byte) []byte {
	buf = append(buf, msgBatch, 0)
	buf = binary.AppendUvarint(buf, uint64(be.n))
	return append(buf, be.entries...)
}

// decodeBatchFrame unwraps a batch frame's body (everything after the
// msgBatch kind byte): it validates the flags byte, which reserves every
// bit (bit 0 once marked a DEFLATE-compressed body). The returned body
// aliases b.
func decodeBatchFrame(b []byte) (body []byte, err error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("dps: truncated batch frame")
	}
	if flags := b[0]; flags != 0 {
		return nil, fmt.Errorf("dps: unknown batch flags %#x", flags)
	}
	return b[1:], nil
}

// decodeBatch iterates a batch frame body, invoking
// fn once per entry in frame order. The entry body passed to fn aliases b.
// Every claimed count and length is validated against the bytes actually
// present before any allocation scales with it.
func decodeBatch(b []byte, fn func(kind byte, stream ft.Stream, seq uint64, body []byte) error) error {
	nentries, b, err := readUint64(b)
	if err != nil {
		return err
	}
	if nentries > maxBatchEntries || nentries > uint64(len(b)) {
		return fmt.Errorf("dps: implausible batch entry count %d", nentries)
	}
	for i := uint64(0); i < nentries; i++ {
		if len(b) < 1 {
			return fmt.Errorf("dps: truncated batch entry")
		}
		kind := b[0]
		b = b[1:]
		var stream ft.Stream
		var seq uint64
		if wireKinds[kind].entry == nil {
			return fmt.Errorf("dps: kind %d is not batchable", kind)
		}
		if wireKinds[kind].sequenced {
			if stream, seq, b, err = readFTStamp(b); err != nil {
				return err
			}
		}
		blen, rest, err := readUint64(b)
		if err != nil {
			return err
		}
		if blen > uint64(len(rest)) {
			return fmt.Errorf("dps: batch entry of %d bytes exceeds frame", blen)
		}
		if err := fn(kind, stream, seq, rest[:blen]); err != nil {
			return err
		}
		b = rest[blen:]
	}
	if len(b) != 0 {
		return fmt.Errorf("dps: %d trailing bytes after batch entries", len(b))
	}
	return nil
}
