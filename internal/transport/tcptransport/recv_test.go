package tcptransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// framesAround returns frames whose headers and bodies fall on, across and
// next to the read buffer boundary when read back to back.
func framesAround() [][]byte {
	sizes := []int{
		readBufSize - 3, // header + body end one byte short of the buffer
		300,             // its two-byte header straddles the boundary
		readBufSize,     // body spans a whole refill
		0, 1,            // degenerate frames right after a long one
		2*readBufSize + 7, // larger than the buffer: read past it
		127, 128,          // one- and two-byte headers
	}
	frames := make([][]byte, len(sizes))
	for i, n := range sizes {
		frames[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
	}
	return frames
}

// TestFramingAcrossBufferBoundary: frames are reassembled wherever the read
// buffer's refills cut the stream — mid-header, mid-body, one byte at a time.
func TestFramingAcrossBufferBoundary(t *testing.T) {
	frames := framesAround()
	var stream []byte
	for _, f := range frames {
		stream = appendFrame(stream, f)
	}
	readers := map[string]frameReader{
		"full reads":   bufio.NewReaderSize(bytes.NewReader(stream), readBufSize),
		"byte by byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), readBufSize),
		"half reads":   bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream)), readBufSize),
	}
	for name, r := range readers {
		for i, want := range frames {
			got, err := readFrame(r, nil)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes of %q, want %d of %q", name, i, len(got), got[:min(len(got), 1)], len(want), want[:min(len(want), 1)])
			}
		}
		if _, err := readFrame(r, nil); err == nil {
			t.Fatalf("%s: a frame after the end of the stream", name)
		}
	}
}

// TestOneByteWriterIsReassembled: the same over a real connection whose
// peer dribbles the stream a byte per write.
func TestOneByteWriterIsReassembled(t *testing.T) {
	_, b := startPair(t)
	got := make(chan []byte, 4)
	b.SetHandler(func(_ string, p []byte) { got <- p })
	c := rawSession(t, b.Addr(), "dribble", 1)
	frames := [][]byte{[]byte("x"), bytes.Repeat([]byte("ab"), 100), {}}
	for _, f := range frames {
		for _, by := range appendFrame(nil, f) {
			if _, err := c.Write([]byte{by}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, want := range frames {
		select {
		case p := <-got:
			if !bytes.Equal(p, want) {
				t.Fatalf("frame %d: got %q want %q", i, p, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
}

// TestShortFramesArriveInBorrowedBuffers: with a lender installed
// (transport.Borrower) every frame up to readChunk reaches the handler in
// the front of a buffer lent for its size, intact — on both sides of the
// wire pool's largest class, across several read buffers — and a longer one
// in a buffer of exactly its own size, grown as its bytes arrived.
func TestShortFramesArriveInBorrowedBuffers(t *testing.T) {
	const slack = 64
	_, b := startPair(t)
	var lent [][]byte
	b.SetBorrow(func(n int) []byte {
		buf := make([]byte, 0, n+slack) // called on the connection's one reader
		lent = append(lent, buf)
		return buf
	})
	got := make(chan []byte, 16)
	b.SetHandler(func(_ string, p []byte) { got <- p })
	c := rawSession(t, b.Addr(), "raw", 1)
	sizes := []int{0, 1, 40, 5000, 31 << 10, 32<<10 - 1, 32 << 10, 32<<10 + 1, 70000, readChunk, readChunk + 1}
	for i, n := range sizes {
		if err := writeFrame(c, bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	borrowed := 0
	for i, n := range sizes {
		var p []byte
		select {
		case p = <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
		if !bytes.Equal(p, bytes.Repeat([]byte{byte('a' + i)}, n)) {
			t.Fatalf("frame %d: %d bytes damaged or misframed", i, len(p))
		}
		if n <= readChunk {
			if borrowed++; cap(p) != n+slack {
				t.Errorf("a frame of %d bytes arrived in a buffer of capacity %d, want the one lent for it (%d)", n, cap(p), n+slack)
			}
		} else if cap(p) != n {
			t.Errorf("a frame of %d bytes arrived in a buffer of capacity %d, want its own size", n, cap(p))
		}
	}
	// The handler has seen the last frame, so the reader is done appending.
	if len(lent) != borrowed {
		t.Errorf("%d buffers lent for %d frames up to readChunk", len(lent), borrowed)
	}
}

// TestOversizedFrameRejected: maxFrame is the largest header believed; one
// byte more is refused before anything is allocated for it.
func TestOversizedFrameRejected(t *testing.T) {
	header := binary.AppendUvarint(nil, maxFrame+1)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(header)), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("readFrame(maxFrame+1) = %v, want the size refused", err)
	}
}
