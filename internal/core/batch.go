package core

import (
	"encoding/binary"
	"fmt"
)

// Batch frame codec (Config.Batch; the batcher itself lives in link.go).
//
// A batch frame coalesces tokens and group-ends bound for one destination
// node into a single transport frame:
//
//	[msgBatch][flags]                       — flags is 0; a frame with any
//	                                          bit set is refused
//	body:
//	  uvarint nstreams, nstreams × string   — FT sender-stream dictionary
//	  uvarint nentries
//	  per entry:
//	    kind byte                           — a kind whose table row has an
//	                                          entry function (kinds.go)
//	    sequenced kinds only: uvarint streamIdx, uvarint seq
//	    uvarint bodyLen, bodyLen bytes      — the message body WITHOUT its
//	                                          kind/stream/seq prefix
//
// Folding the FT stream names into one per-frame dictionary (and the
// per-entry stamp into two uvarints) is what collapses the sequenced
// framing overhead: a stream name travels once per frame instead of once
// per token. Entry bodies reuse the existing encodings byte for byte —
// a token entry is appendEnvelopeBody + serialized payload, a group-end
// entry is appendGroupEndBody — so a batch of N entries decodes to exactly
// the same messages as N individual frames.

// Hostile-input bounds: a decoder must not allocate proportionally to
// claimed counts before validating them against the bytes present.
const (
	maxBatchStreams = 1 << 16
	maxBatchEntries = 1 << 20
)

// batchEncoder accumulates entries of one batch frame. The zero value is
// ready; reset() recycles it between flushes.
type batchEncoder struct {
	entries []byte // encoded entries section
	streams []string
	idx     map[string]int
	n       int // entry count
	tokens  int // token entries (stats: tokens per frame)
}

func (be *batchEncoder) reset() {
	be.entries = be.entries[:0]
	be.streams = be.streams[:0]
	be.n = 0
	be.tokens = 0
	for k := range be.idx {
		delete(be.idx, k)
	}
}

func (be *batchEncoder) empty() bool { return be.n == 0 }

// size approximates the frame size so the batcher can bound it.
func (be *batchEncoder) size() int { return len(be.entries) }

func (be *batchEncoder) streamIdx(stream string) int {
	if be.idx == nil {
		be.idx = make(map[string]int)
	}
	if i, ok := be.idx[stream]; ok {
		return i
	}
	i := len(be.streams)
	be.streams = append(be.streams, stream)
	be.idx[stream] = i
	return i
}

// add appends one entry. kind must be batchable; stream/seq are only
// consulted for the sequenced kinds. body is copied.
func (be *batchEncoder) add(kind byte, stream string, seq uint64, body []byte) {
	be.entries = append(be.entries, kind)
	if wireKinds[kind].sequenced {
		be.entries = binary.AppendUvarint(be.entries, uint64(be.streamIdx(stream)))
		be.entries = binary.AppendUvarint(be.entries, seq)
	}
	be.entries = binary.AppendUvarint(be.entries, uint64(len(body)))
	be.entries = append(be.entries, body...)
	be.n++
	if kind == msgToken || kind == msgTokenFT {
		be.tokens++
	}
}

// appendFrame assembles the full wire frame into buf. The body assembles
// straight into the frame buffer — header and entries are never
// concatenated anywhere else first.
func (be *batchEncoder) appendFrame(buf []byte) []byte {
	buf = append(buf, msgBatch, 0)
	buf = binary.AppendUvarint(buf, uint64(len(be.streams)))
	for _, s := range be.streams {
		buf = appendString(buf, s)
	}
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
func decodeBatch(b []byte, fn func(kind byte, stream string, seq uint64, body []byte) error) error {
	nstreams, b, err := readUint64(b)
	if err != nil {
		return err
	}
	if nstreams > maxBatchStreams || nstreams > uint64(len(b)) {
		return fmt.Errorf("dps: implausible batch stream count %d", nstreams)
	}
	streams := make([]string, nstreams)
	for i := range streams {
		if streams[i], b, err = readString(b); err != nil {
			return err
		}
	}
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
		var stream string
		var seq uint64
		if wireKinds[kind].entry == nil {
			return fmt.Errorf("dps: kind %d is not batchable", kind)
		}
		if wireKinds[kind].sequenced {
			var idx uint64
			if idx, b, err = readUint64(b); err != nil {
				return err
			}
			if idx >= nstreams {
				return fmt.Errorf("dps: batch stream index %d out of range", idx)
			}
			if seq, b, err = readUint64(b); err != nil {
				return err
			}
			stream = streams[idx]
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
