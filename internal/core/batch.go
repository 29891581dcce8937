package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Batch frame codec (Config.Batch; the batcher itself lives in link.go).
//
// A batch frame coalesces tokens and group-ends bound for one destination
// node into a single transport frame:
//
//	[msgBatch][flags]
//	  flags bit0 set: body is DEFLATE-compressed, preceded by
//	                  uvarint(rawLen); otherwise the body follows raw.
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

const (
	batchFlagCompressed byte = 1 << 0

	// Hostile-input bounds: a decoder must not allocate proportionally to
	// claimed counts before validating them against the bytes present.
	maxBatchStreams = 1 << 16
	maxBatchEntries = 1 << 20
	maxBatchRaw     = 1 << 30
)

// batchEncoder accumulates entries of one batch frame. The zero value is
// ready; reset() recycles it between flushes.
type batchEncoder struct {
	entries []byte // encoded entries section
	streams []string
	idx     map[string]int
	n       int    // entry count
	tokens  int    // token entries (stats: tokens per frame)
	hdr     []byte // per-flush header staging, reused
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

// appendFrame assembles the full wire frame into buf. With compress set the
// body is DEFLATE-compressed when that actually shrinks it; the returned
// rawLen/gotLen report the body sizes before and after (equal when the
// frame went out raw) for the compression counters.
func (be *batchEncoder) appendFrame(buf []byte, compress bool) (out []byte, rawLen, gotLen int) {
	hdr := binary.AppendUvarint(be.hdr[:0], uint64(len(be.streams)))
	for _, s := range be.streams {
		hdr = appendString(hdr, s)
	}
	hdr = binary.AppendUvarint(hdr, uint64(be.n))
	be.hdr = hdr
	rawLen = len(hdr) + len(be.entries)

	if compress && rawLen > batchCompressMin {
		if packed, ok := deflateBatch(hdr, be.entries); ok {
			buf = append(buf, msgBatch, batchFlagCompressed)
			buf = binary.AppendUvarint(buf, uint64(rawLen))
			return append(buf, packed...), rawLen, len(packed)
		}
	}
	// The body assembles straight into the frame buffer — header and
	// entries are never concatenated anywhere else first.
	buf = append(buf, msgBatch, 0)
	buf = append(buf, hdr...)
	return append(buf, be.entries...), rawLen, rawLen
}

// batchCompressMin is the smallest body worth offering to DEFLATE; tiny
// frames only grow.
const batchCompressMin = 256

// decodeBatchFrame unwraps a batch frame's body (everything after the
// msgBatch kind byte): it validates the flags and, for compressed frames,
// inflates into a fresh buffer bounded by the claimed raw length. The
// returned body either aliases b (raw) or is freshly allocated (inflated);
// inflated reports which, so the caller can recycle the wire buffer early.
func decodeBatchFrame(b []byte) (body []byte, inflated bool, err error) {
	if len(b) < 1 {
		return nil, false, fmt.Errorf("dps: truncated batch frame")
	}
	flags, b := b[0], b[1:]
	if flags&^batchFlagCompressed != 0 {
		return nil, false, fmt.Errorf("dps: unknown batch flags %#x", flags)
	}
	if flags&batchFlagCompressed == 0 {
		return b, false, nil
	}
	rawLen, n := binary.Uvarint(b)
	if n <= 0 || rawLen > maxBatchRaw {
		return nil, false, fmt.Errorf("dps: implausible batch raw length %d", rawLen)
	}
	body, err = inflateBatch(b[n:], int(rawLen))
	if err != nil {
		return nil, false, err
	}
	return body, true, nil
}

// decodeBatch iterates a batch frame body (after decompression), invoking
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

// --- DEFLATE helpers ------------------------------------------------------

var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// deflateBatch compresses the concatenation of parts (streamed into one
// DEFLATE stream, so callers need not join them first); ok is false when
// compression does not shrink it (the frame then goes out raw).
func deflateBatch(parts ...[]byte) (packed []byte, ok bool) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	var buf bytes.Buffer
	buf.Grow(total / 2)
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(&buf)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			flateWriterPool.Put(w)
			return nil, false
		}
	}
	if err := w.Close(); err != nil {
		flateWriterPool.Put(w)
		return nil, false
	}
	flateWriterPool.Put(w)
	if buf.Len() >= total {
		return nil, false
	}
	return buf.Bytes(), true
}

var flateReaderPool sync.Pool

// inflateBatch decompresses into a buffer of exactly rawLen bytes; a stream
// that inflates to any other size is corrupt.
func inflateBatch(packed []byte, rawLen int) ([]byte, error) {
	var r io.ReadCloser
	if v := flateReaderPool.Get(); v != nil {
		r = v.(io.ReadCloser)
		if err := r.(flate.Resetter).Reset(bytes.NewReader(packed), nil); err != nil {
			return nil, err
		}
	} else {
		r = flate.NewReader(bytes.NewReader(packed))
	}
	defer flateReaderPool.Put(r)
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("dps: corrupt batch body: %w", err)
	}
	// One more read must report EOF, or the stream holds more than claimed.
	var one [1]byte
	if n, err := r.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("dps: batch body larger than claimed %d bytes", rawLen)
	}
	return out, nil
}
