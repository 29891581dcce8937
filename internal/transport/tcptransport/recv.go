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
	// allocate; beyond it the buffer doubles as payload bytes arrive. At
	// 1 MiB every frame of the four dps-perf workloads (largest: ring_64k,
	// 64 KiB) is still read into one allocation of its own size.
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

// borrowed is where frames shorter than limit are read into
// (transport.Borrower): get(n) returns an empty buffer of at least n
// capacity.
type borrowed struct {
	limit int
	get   func(n int) []byte
}

// readFrame reads one [uvarint len][payload] frame into a buffer the caller
// owns: one from small when the frame is shorter than small's limit,
// otherwise (always, with a nil small) one allocated at exactly the frame's
// size.
func readFrame(r frameReader, small *borrowed) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit", size)
	}
	if small != nil && size < uint64(small.limit) {
		buf := small.get(int(size))[:size]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, min(size, readChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint64(len(buf)) < size {
		// A claimed size is believed only as far as bytes have arrived.
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
		payload, err := readFrame(br, n.borrow.Load())
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
