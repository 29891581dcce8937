package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

const (
	maxFrame = 1 << 30
	// readChunk is the most a frame's header alone can make the receiver
	// allocate; beyond it the overflow buffer doubles as payload bytes
	// arrive. At 1 MiB every frame of the four dps-perf workloads (largest:
	// ring_64k, 64 KiB) is still read into one buffer.
	readChunk = 1 << 20
)

// frameReader parses one connection's [uvarint len][payload] frames where
// they lie, in a buffer as long as a sender's largest write (scratchSize).
// A longer frame is assembled in an overflow buffer. Either is lent: valid
// until the next call to next, which reuses its bytes.
type frameReader struct {
	c     io.Reader
	reads *atomic.Int64 // Stats.Reads
	buf   []byte
	// buf[start:end] has been read and not yet parsed.
	start, end int
	big        []byte // the overflow buffer
}

func newFrameReader(c io.Reader, reads *atomic.Int64) *frameReader {
	return &frameReader{c: c, reads: reads, buf: make([]byte, scratchSize)}
}

// next returns the next frame, lent until the following call.
func (fr *frameReader) next() ([]byte, error) {
	size, k := binary.Uvarint(fr.buf[fr.start:fr.end])
	for k == 0 {
		if err := fr.fill(); err != nil {
			return nil, err
		}
		size, k = binary.Uvarint(fr.buf[fr.start:fr.end])
	}
	if k < 0 {
		return nil, errors.New("tcptransport: frame header overflows 64 bits")
	}
	if size > maxFrame {
		return nil, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit", size)
	}
	fr.start += k
	n := int(size)
	if n > len(fr.buf) {
		return fr.overflow(n)
	}
	for fr.end-fr.start < n {
		if err := fr.fill(); err != nil {
			return nil, err
		}
	}
	p := fr.buf[fr.start : fr.start+n : fr.start+n]
	fr.start += n
	return p, nil
}

// fill moves the unparsed bytes to the front of buf and reads behind them.
// There is always room: a full buffer holds a whole header, and a frame
// that fits buf fits it from the front.
func (fr *frameReader) fill() error {
	if fr.start > 0 {
		fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.start = 0
	}
	fr.reads.Add(1)
	m, err := fr.c.Read(fr.buf[fr.end:])
	fr.end += m
	if m > 0 {
		return nil // an error that came with bytes comes back with the next read
	}
	return err
}

// overflow assembles a frame of n bytes, more than buf holds, in the
// reused overflow buffer, reading never past the frame's end. It grows by
// the readChunk rule: a header alone buys at most readChunk bytes, and
// beyond that the buffer doubles only as payload arrives.
func (fr *frameReader) overflow(n int) ([]byte, error) {
	b := append(fr.big[:0], fr.buf[fr.start:fr.end]...)
	fr.start = fr.end
	for len(b) < n {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(n, max(readChunk, 2*len(b)))), b...)
		}
		fr.reads.Add(1)
		m, err := fr.c.Read(b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if m == 0 && err != nil {
			return nil, err
		}
	}
	fr.big = b
	return b[:n:n], nil
}

// readLoop delivers the frames arriving on one connection until it fails,
// then closes and forgets it. Each frame is lent to the handler for the
// call (transport.Handler). Nothing here takes the node mutex: the handler
// and the peer's current session are atomics.
func (n *Node) readLoop(fr *frameReader, p *peer, cc *conn) {
	defer n.untrack(p, cc)
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		if cc.inbound && p.session.Load() != cc.epoch {
			// A newer session superseded this one while the frame was in
			// flight: drop it, and the connection with it. The peer re-sends
			// on the new session.
			n.stats.framesDiscarded.Add(1)
			return
		}
		if h := n.handler.Load(); h != nil {
			n.stats.framesReceived.Add(1)
			(*h)(p.name, payload)
		}
	}
}
