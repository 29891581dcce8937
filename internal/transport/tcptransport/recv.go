package tcptransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

const (
	maxFrame = 1 << 30
	// readChunk is the most a frame's header alone can make the receiver
	// allocate or borrow; beyond it the buffer doubles as payload bytes
	// arrive. At 1 MiB every frame of the four dps-perf workloads (largest:
	// ring_64k, 64 KiB) is still read into one buffer.
	readChunk = 1 << 20
	// readBufSize is each connection's read buffer: one socket read drains
	// up to this many bytes of frames. dps-perf ring_1k at 16, 32 and 64 KiB
	// (3 seeds x 6 s): 93.2/89.9/93.9, 91.6/85.2/92.6 and 89.9/92.7/96.6 k
	// tokens/s — no difference (10.7 frames per read at 16 KiB, 19.6 at
	// 64 KiB) — and ring_64k likewise, so the smallest stayed.
	readBufSize = 16 << 10
)

// frameReader is what readFrame needs of a connection's buffered reader.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame reads one [uvarint len][payload] frame into a buffer the caller
// owns: up to readChunk bytes, one from borrow (or, with a nil borrow, one
// allocated at exactly the frame's size); above it, buffers that double as
// the payload arrives, so a claimed size is believed only as far as bytes
// have come in.
func readFrame(r frameReader, borrow func(n int) []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit", size)
	}
	var buf []byte
	switch {
	case size > readChunk:
		buf = make([]byte, readChunk)
	case borrow != nil:
		buf = borrow(int(size))[:size]
	default:
		buf = make([]byte, size)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint64(len(buf)) < size {
		grown := make([]byte, min(size, 2*uint64(len(buf))))
		k := copy(grown, buf)
		if _, err := io.ReadFull(r, grown[k:]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// readLoop delivers the frames arriving on one connection until it fails,
// then closes and forgets it. Nothing here takes the node mutex: the
// handler and the peer's current session are atomics.
func (n *Node) readLoop(br *bufio.Reader, p *peer, cc *conn) {
	defer n.untrack(p, cc)
	for {
		payload, err := readFrame(br, n.lender())
		if err != nil {
			return
		}
		if cc.inbound && p.session.Load() != cc.epoch {
			// A newer session superseded this one while the frame was in
			// flight; drop it — the peer re-sends on the new session.
			return
		}
		if h := n.handler.Load(); h != nil {
			n.stats.framesReceived.Add(1)
			(*h)(p.name, payload)
		}
	}
}

// countedReader counts the reads that reach the socket under a bufio.Reader.
type countedReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countedReader) Read(b []byte) (int, error) {
	c.n.Add(1)
	return c.r.Read(b)
}
