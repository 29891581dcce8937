package tcptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// framesAround returns frames whose headers and bodies fall on, across and
// next to the read buffer boundary when read back to back.
func framesAround() [][]byte {
	sizes := []int{
		scratchSize - 3, // header + body end one byte short of the buffer
		300,             // its two-byte header straddles the boundary
		scratchSize,     // body spans a whole refill
		0, 1,            // degenerate frames right after a long one
		2*scratchSize + 7, // larger than the buffer: read past it
		127, 128,          // one- and two-byte headers
		readChunk + 3, // past what a header alone buys: the overflow doubles
	}
	frames := make([][]byte, len(sizes))
	for i, n := range sizes {
		frames[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
	}
	return frames
}

// TestFramingAcrossBufferBoundary: frames are reassembled wherever the
// connection's reads cut the stream — mid-header, mid-body, one byte at a
// time — and each is lent as a slice that ends where the frame does.
func TestFramingAcrossBufferBoundary(t *testing.T) {
	frames := framesAround()
	var stream []byte
	for _, f := range frames {
		stream = appendFrame(stream, f)
	}
	readers := map[string]io.Reader{
		"full reads":   bytes.NewReader(stream),
		"byte by byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"half reads":   iotest.HalfReader(bytes.NewReader(stream)),
	}
	for name, r := range readers {
		fr := testReader(r)
		for i, want := range frames {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes of %q, want %d of %q", name, i, len(got), got[:min(len(got), 1)], len(want), want[:min(len(want), 1)])
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: frame %d lent with capacity %d beyond its %d bytes", name, i, cap(got), len(got))
			}
		}
		if _, err := fr.next(); err == nil {
			t.Fatalf("%s: a frame after the end of the stream", name)
		}
	}
}

// TestOneByteWriterIsReassembled: the same over a real connection whose
// peer dribbles the stream a byte per write.
func TestOneByteWriterIsReassembled(t *testing.T) {
	_, b := startPair(t)
	got := make(chan []byte, 4)
	b.SetHandler(func(_ string, p []byte) { got <- bytes.Clone(p) })
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

// TestFramesAreLentInPlace: every frame up to the read buffer's size
// reaches the handler where it lies in the connection's one read buffer,
// and every longer one in the connection's one overflow buffer, reused from
// frame to frame — no frame is copied out or given a buffer of its own.
func TestFramesAreLentInPlace(t *testing.T) {
	_, b := startPair(t)
	type lent struct {
		at     uintptr
		n      int
		intact bool
	}
	got := make(chan lent, 16)
	b.SetHandler(func(_ string, p []byte) {
		got <- lent{
			at:     uintptr(unsafe.Pointer(unsafe.SliceData(p))),
			n:      len(p),
			intact: bytes.Count(p, p[:1]) == len(p),
		}
	})
	c := rawSession(t, b.Addr(), "raw", 1)
	// The first long frame is the longest, so the overflow buffer never
	// has to grow after it.
	sizes := []int{1, 40, 5000, 32 << 10, scratchSize, readChunk, scratchSize + 1, 1, 70000, 3}
	for i, n := range sizes {
		if err := writeFrame(c, bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := ^uintptr(0), uintptr(0) // the span of the frames lent from the read buffer
	var overflow uintptr
	for i, n := range sizes {
		var l lent
		select {
		case l = <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
		if l.n != n || !l.intact {
			t.Fatalf("frame %d: %d bytes, damaged or misframed, want %d", i, l.n, n)
		}
		switch {
		case n <= scratchSize:
			lo, hi = min(lo, l.at), max(hi, l.at+uintptr(n))
		case overflow == 0:
			overflow = l.at
		case l.at != overflow:
			t.Errorf("a %d-byte frame arrived in a new overflow buffer", n)
		}
	}
	if hi-lo > scratchSize {
		t.Errorf("the frames up to %d bytes span %d bytes: not all lie in one read buffer", scratchSize, hi-lo)
	}
}

// TestOversizedFrameRejected: maxFrame is the largest header believed; one
// byte more is refused before anything is allocated for it.
func TestOversizedFrameRejected(t *testing.T) {
	header := binary.AppendUvarint(nil, maxFrame+1)
	_, err := testReader(bytes.NewReader(header)).next()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("next() on a header of maxFrame+1 = %v, want the size refused", err)
	}
}

// scriptedStream hands out a byte stream in reads of scripted sizes, taken
// in turn from sizes: a size byte s reads s bytes, 0 the whole remainder.
type scriptedStream struct {
	stream, sizes []byte
	i             int
}

func (c *scriptedStream) Read(b []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(c.stream)
	if len(c.sizes) > 0 {
		if s := int(c.sizes[c.i%len(c.sizes)]); s > 0 {
			n = s
		}
		c.i++
	}
	n = copy(b, c.stream[:min(n, len(c.stream))])
	c.stream = c.stream[n:]
	return n, nil
}

// streamFrames is the reference parse of a frame stream: every whole frame
// up to the first malformed, oversized or truncated one.
func streamFrames(stream []byte) [][]byte {
	var frames [][]byte
	for {
		size, k := binary.Uvarint(stream)
		if k <= 0 || size > maxFrame || size > uint64(len(stream)-k) {
			return frames
		}
		frames = append(frames, stream[k:k+int(size)])
		stream = stream[k+int(size):]
	}
}

// FuzzFrameStream feeds hostile byte streams through a connection's reader,
// in reads of the sizes the fuzzer picks. No stream may panic it; it must
// deliver exactly the whole frames the stream encodes, in order, and never a
// truncated one; and what it allocates is bounded by the bytes it received
// (a header alone buys at most readChunk), whatever sizes the headers claim.
func FuzzFrameStream(f *testing.F) {
	var small []byte
	for _, n := range []int{0, 1, 127, 128, 300} {
		small = appendFrame(small, bytes.Repeat([]byte{byte(n)}, n))
	}
	long := appendFrame(appendFrame(nil, bytes.Repeat([]byte{'L'}, scratchSize+100)), []byte("after"))
	f.Add(small, []byte{0})
	f.Add(small, []byte{1})
	f.Add(small, []byte{3, 200, 7})
	f.Add(long, []byte{0})
	f.Add(long, []byte{255, 13})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x04, 'x'}, []byte{0})                                  // claims 1 GiB
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{2})   // overflows 64 bits
	f.Add(append(binary.AppendUvarint(nil, maxFrame+1), 'x'), []byte{0})                         // one byte over the limit
	f.Add(append(appendFrame(nil, []byte("whole")), binary.AppendUvarint(nil, 9)...), []byte{4}) // then a torn header's frame
	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		want := streamFrames(stream)
		fr := testReader(&scriptedStream{stream: stream, sizes: sizes})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered, bad := 0, -1
		var err error
		for {
			var p []byte
			if p, err = fr.next(); err != nil {
				break
			}
			if delivered >= len(want) || !bytes.Equal(p, want[delivered]) {
				bad = delivered
				break
			}
			delivered++
		}
		runtime.ReadMemStats(&after)
		if bad >= 0 {
			t.Fatalf("frame %d delivered is not the stream's (%d whole frames in it)", bad, len(want))
		}
		if delivered != len(want) {
			t.Fatalf("%d frames delivered before %v, want %d", delivered, err, len(want))
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(readChunk+6*len(stream)+4096); grew > bound {
			t.Fatalf("%d stream bytes made the reader allocate %d bytes, bound %d", len(stream), grew, bound)
		}
	})
}

// TestSupersededSessionCountsDiscards: frames that reach a connection after
// a newer session of the same peer superseded it are not handed to the
// handler; the first one read is counted in Stats.FramesDiscarded, and the
// connection is dropped with the rest.
func TestSupersededSessionCountsDiscards(t *testing.T) {
	a, b := startPair(t)
	a.SetHandler(func(string, []byte) {})
	delivered := make(chan string, 16)
	b.SetHandler(func(_ string, p []byte) { delivered <- string(p) })
	// b's own dial to a is its send path to "a", so a newer session from
	// "a" supersedes the old one without closing it: the old socket is
	// still read.
	if err := b.Send("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	old := rawSession(t, b.Addr(), "a", 1)
	waitFor(t, "session 1", 5*time.Second, func() bool { return b.SessionEpoch("a") == 1 })
	rawSession(t, b.Addr(), "a", 2)
	waitFor(t, "session 2", 5*time.Second, func() bool { return b.SessionEpoch("a") == 2 })

	const frames = 8
	var burst []byte
	for i := 0; i < frames; i++ {
		burst = appendFrame(burst, []byte{'o', 'l', 'd', byte('0' + i)})
	}
	if _, err := old.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = old.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := old.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("read on the superseded connection = %v, want it closed by the receiver", err)
	}
	if n := b.Stats().FramesDiscarded; n != 1 {
		t.Fatalf("FramesDiscarded = %d, want the one frame read whole before the connection was dropped", n)
	}
	select {
	case p := <-delivered:
		t.Fatalf("frame %q of the superseded session was delivered", p)
	default:
	}
}
