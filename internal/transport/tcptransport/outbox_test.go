package tcptransport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector gathers copies of a receiver's frames in arrival order.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) handle(_ string, p []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, bytes.Clone(p))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// seqs returns the sequence numbers received so far, in order.
func (c *collector) seqs() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint32, len(c.frames))
	for i, f := range c.frames {
		_, out[i] = parseSeqFrame(f)
	}
	return out
}

// scriptedConn is a connection whose writes follow a script: write number
// hold (counting the hello as write 0) closes held, if set, and blocks until
// release is closed, and write number tear hands only tearAfter bytes to the
// socket, waits for torn to be closed, and fails.
type scriptedConn struct {
	net.Conn
	writes    int
	hold      int
	held      chan struct{}
	release   chan struct{}
	tear      int
	tearAfter int
	torn      chan struct{}
}

func (s *scriptedConn) Write(p []byte) (int, error) {
	i := s.writes
	s.writes++
	switch i {
	case s.hold:
		if s.held != nil {
			close(s.held)
		}
		<-s.release
	case s.tear:
		n, err := s.Conn.Write(p[:s.tearAfter])
		if err != nil {
			return n, err
		}
		<-s.torn
		return n, errors.New("scripted: connection torn mid-write")
	}
	return s.Conn.Write(p)
}

// TestPartialWriteResendsOnlyUnwrittenFrames: a batch of ten frames is
// written in one piece and the connection takes three and a half of them
// before failing. The three whole ones are never sent again; the torn one
// and the rest arrive once, in order, on the redialed session.
func TestPartialWriteResendsOnlyUnwrittenFrames(t *testing.T) {
	a, b := startPair(t)
	var got collector
	b.SetHandler(got.handle)

	const frameLen = 100 // one header byte each
	script := &scriptedConn{
		hold: 1, release: make(chan struct{}),
		tear: 2, tearAfter: 3*(frameLen+1) + frameLen/2, torn: make(chan struct{}),
	}
	// Frame 0 is written inline and held inside the socket write; frames
	// 1-10 queue behind it and leave as one batch when it returns.
	first := holdFirstWrite(t, a, script, seqFrame(0, 0, frameLen))
	for seq := uint32(1); seq <= 10; seq++ {
		if err := a.Send("b", seqFrame(0, seq, frameLen)); err != nil {
			t.Fatal(err)
		}
	}
	close(script.release)
	// The old session delivers what it got whole before the write fails, so
	// the two sessions' frames cannot race each other.
	waitFor(t, "frames 0-3 on the first session", 5*time.Second, func() bool { return got.count() == 4 })
	close(script.torn)
	// The sender of frame 0 wrote the batch behind it too, on its way out;
	// the batch's failure is not its frame's.
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frames 4-10 on the redialed session", 10*time.Second, func() bool { return got.count() >= 11 })

	time.Sleep(50 * time.Millisecond) // a resent frame would arrive about now
	seqs := got.seqs()
	if len(seqs) != 11 {
		t.Fatalf("received %d frames %v, want 11", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("received %v: not each frame once, in order", seqs)
		}
	}
	st := a.Stats()
	if st.FramesSent != 11 || st.Dials != 2 {
		t.Fatalf("stats %+v: want 11 frames handed to the kernel over 2 dials", st)
	}
}

// releaseCounter is a transport.Releaser function that counts, per buffer,
// how often it was given back.
type releaseCounter struct {
	mu sync.Mutex
	n  map[*byte]int
}

func (r *releaseCounter) release(p []byte) {
	r.mu.Lock()
	if r.n == nil {
		r.n = make(map[*byte]int)
	}
	r.n[&p[0]]++
	r.mu.Unlock()
}

func (r *releaseCounter) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, k := range r.n {
		total += k
	}
	return total
}

// exactlyOnce fails unless each of sent was released once and nothing else
// was released at all.
func (r *releaseCounter) exactlyOnce(t *testing.T, sent [][]byte) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range sent {
		if k := r.n[&p[0]]; k != 1 {
			t.Errorf("payload %d released %d times, want once", i, k)
		}
	}
	if len(r.n) > len(sent) {
		t.Errorf("%d distinct buffers released, only %d sent", len(r.n), len(sent))
	}
}

// holdFirstWrite sends frame 0 to "b" inline through script, whose write 1
// blocks, and returns once that write owns the socket: every Send from then
// on queues behind it. The result of the held Send arrives on the channel.
func holdFirstWrite(t *testing.T, a *Node, script *scriptedConn, frame []byte) <-chan error {
	t.Helper()
	var dials atomic.Int32
	a.dial = func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err == nil && dials.Add(1) == 1 {
			script.Conn = c
			return script, nil
		}
		return c, err
	}
	script.held = make(chan struct{})
	first := make(chan error, 1)
	go func() { first <- a.Send("b", frame) }()
	select {
	case <-script.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the inline write never reached the socket")
	}
	return first
}

// TestReleaseExactlyOnce: with a release function installed, every payload
// a Send accepted comes back once the kernel has taken its frame whole —
// whichever goroutine wrote it — and never twice (a second release would
// put one buffer under two senders); a payload whose Send failed never
// comes back, because the caller still owns it.
func TestReleaseExactlyOnce(t *testing.T) {
	const frameLen = 100 // one header byte each
	frames := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = seqFrame(0, uint32(i), frameLen)
		}
		return out
	}

	t.Run("inline", func(t *testing.T) {
		a, b := startPair(t)
		var got collector
		b.SetHandler(got.handle)
		var rel releaseCounter
		a.SetRelease(rel.release)
		sent := frames(3)
		for i, f := range sent {
			time.Sleep(2 * streakGap) // never a streak: the caller writes
			if err := a.Send("b", f); err != nil {
				t.Fatal(err)
			}
			if k := rel.total(); k != i+1 {
				t.Fatalf("%d releases when Send %d returned, want %d: an inline frame is released before Send returns", k, i, i+1)
			}
		}
		if q := a.Stats().FramesQueued; q != 0 {
			t.Fatalf("%d frames queued: the case did not test the inline path", q)
		}
		rel.exactlyOnce(t, sent)
	})

	t.Run("queued", func(t *testing.T) {
		a, b := startPair(t)
		var got collector
		b.SetHandler(got.handle)
		var rel releaseCounter
		a.SetRelease(rel.release)
		sent := frames(11)
		script := &scriptedConn{hold: 1, release: make(chan struct{}), tear: -1}
		first := holdFirstWrite(t, a, script, sent[0])
		for _, f := range sent[1:] {
			if err := a.Send("b", f); err != nil {
				t.Fatal(err)
			}
		}
		if k := rel.total(); k != 0 {
			t.Fatalf("%d releases with every frame still unwritten", k)
		}
		close(script.release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "all frames", 5*time.Second, func() bool { return got.count() == len(sent) })
		waitFor(t, "all releases", 5*time.Second, func() bool { return rel.total() >= len(sent) })
		if q := a.Stats().FramesQueued; q != int64(len(sent)-1) {
			t.Fatalf("%d frames queued, want %d", q, len(sent)-1)
		}
		rel.exactlyOnce(t, sent)
	})

	// The scenario of TestPartialWriteResendsOnlyUnwrittenFrames: frames 1-3
	// of a batch of ten leave whole before the connection tears. They are
	// released at the failure, ahead of the redial, and not again when the
	// rest of the batch goes out on the new session.
	t.Run("partial write then redial", func(t *testing.T) {
		a, b := startPair(t)
		var got collector
		b.SetHandler(got.handle)
		var rel releaseCounter
		a.SetRelease(rel.release)
		sent := frames(11)
		script := &scriptedConn{
			hold: 1, release: make(chan struct{}),
			tear: 2, tearAfter: 3*(frameLen+1) + frameLen/2, torn: make(chan struct{}),
		}
		first := holdFirstWrite(t, a, script, sent[0])
		for _, f := range sent[1:] {
			if err := a.Send("b", f); err != nil {
				t.Fatal(err)
			}
		}
		close(script.release)
		waitFor(t, "frames 0-3 on the first session", 5*time.Second, func() bool { return got.count() == 4 })
		if k := rel.total(); k != 1 {
			t.Fatalf("%d releases while the batch's write is in progress, want 1 (frame 0)", k)
		}
		close(script.torn)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "frames 4-10 on the redialed session", 10*time.Second, func() bool { return got.count() >= len(sent) })
		waitFor(t, "all releases", 5*time.Second, func() bool { return rel.total() >= len(sent) })
		rel.exactlyOnce(t, sent)
	})

	// Close's last flush writes what the outbox still holds; those frames
	// are released like any other.
	t.Run("close flush", func(t *testing.T) {
		a, b := startPair(t)
		var got collector
		b.SetHandler(got.handle)
		var rel releaseCounter
		a.SetRelease(rel.release)
		sent := frames(6)
		script := &scriptedConn{hold: 1, release: make(chan struct{}), tear: -1}
		first := holdFirstWrite(t, a, script, sent[0])
		for _, f := range sent[1:] {
			if err := a.Send("b", f); err != nil {
				t.Fatal(err)
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- a.Close() }()
		waitFor(t, "Close to begin", 5*time.Second, a.closed.Load)
		// The owner of the socket finds the node closed and leaves the queue
		// to Close.
		close(script.release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "all frames", 5*time.Second, func() bool { return got.count() == len(sent) })
		rel.exactlyOnce(t, sent)
	})

	// A Send that returns an error has not accepted the payload: it is the
	// caller's to send again, so it must never reach the release function —
	// neither when the caller's own write ran out of retries nor when a
	// failed outbox refuses it.
	t.Run("refused", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := l.Addr().String()
		_ = l.Close() // nobody listens there any more
		for _, budget := range []time.Duration{0, 20 * time.Millisecond} {
			a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"b": dead}), WithRetryBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			var rel releaseCounter
			a.SetRelease(rel.release)
			// Past streakLen a Send joins the outbox instead (nil) until the
			// writer has failed too; such a frame is accepted, never written,
			// and so never released either.
			for i := 0; i < 8; i++ {
				if err := a.Send("b", seqFrame(0, uint32(i), frameLen)); err == nil && i == 0 {
					t.Errorf("budget %v: the caller's own write to a dead address succeeded", budget)
				}
			}
			_ = a.Close()
			if k := rel.total(); k != 0 {
				t.Errorf("budget %v: %d payloads released, none of them written", budget, k)
			}
		}
	})

	// Without a release function a payload is simply dropped after the
	// write, so a caller may hand the same bytes to Send again — which is
	// what internal/perf's probes do.
	t.Run("no function installed", func(t *testing.T) {
		a, b := startPair(t)
		var got collector
		b.SetHandler(got.handle)
		payload := seqFrame(0, 7, frameLen)
		const sends = 50 // streams after streakLen: both paths
		for i := 0; i < sends; i++ {
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "all frames", 5*time.Second, func() bool { return got.count() == sends })
		for i, s := range got.seqs() {
			if s != 7 {
				t.Fatalf("frame %d arrived as %d: a reused payload was disturbed", i, s)
			}
		}
	})
}

// TestStreamSurvivesPeerRestart: the peer dies under two streams. Once the
// retry budget is spent Send reports a transient error instead of accepting
// more; the frames the outbox had accepted stay in it; and when the peer is
// back they arrive — all of them, each stream's in order, without another
// Send having to push them. What a stream loses is one contiguous stretch:
// the frames handed to the dead session's socket.
func TestStreamSurvivesPeerRestart(t *testing.T) {
	table := map[string]string{}
	resolver := StaticResolver(table)
	a, err := Listen("a", "127.0.0.1:0", resolver, WithRetryBudget(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b1, err := Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	table["a"], table["b"] = a.Addr(), b1.Addr()
	bAddr := b1.Addr()
	var got1, got2 collector
	b1.SetHandler(got1.handle)

	// Two goroutines stream until Send refuses: whichever of them (or the
	// writer) meets the dead socket, the other's frames queue behind it.
	const lanes = 2
	var accepted [lanes]uint32
	sendErrs := make(chan error, lanes)
	for lane := uint32(0); lane < lanes; lane++ {
		go func(lane uint32) {
			for seq := uint32(0); ; seq++ {
				if err := a.Send("b", seqFrame(lane, seq, 64)); err != nil {
					atomic.StoreUint32(&accepted[lane], seq)
					sendErrs <- err
					return
				}
			}
		}(lane)
	}
	waitFor(t, "the streams to flow", 5*time.Second, func() bool { return got1.count() >= 1000 })
	_ = b1.Close()
	for lane := 0; lane < lanes; lane++ {
		select {
		case err := <-sendErrs:
			if !IsTransient(err) {
				t.Fatalf("Send after the budget ran out: %v, want a transient error", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("Send kept accepting frames for a dead peer")
		}
	}
	if st := a.Stats(); st.FramesQueued == 0 || st.Retries == 0 {
		t.Fatalf("stats %+v: the streams never took the outbox, or the outage was never retried", st)
	}
	if err := a.Send("b", seqFrame(0, 0, 64)); err == nil || !IsTransient(err) {
		t.Fatalf("Send into a failed outbox: %v, want a transient error", err)
	}
	p := a.peer("b")
	p.mu.Lock()
	kept := p.pendingLocked()
	p.mu.Unlock()
	if kept == 0 {
		t.Fatal("the outbox kept nothing: two streams cannot both have been written inline")
	}

	var b2 *Node
	for i := 0; ; i++ {
		if b2, err = Listen("b", bAddr, resolver); err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("rebind %s: %v", bAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { _ = b2.Close() })
	b2.SetHandler(got2.handle)
	waitFor(t, "the kept frames to reach the restarted peer", 10*time.Second, func() bool { return got2.count() >= kept })
	time.Sleep(50 * time.Millisecond) // a frame sent twice would arrive about now
	if n := got2.count(); n != kept {
		t.Fatalf("the restarted peer received %d frames, the outbox had kept %d", n, kept)
	}

	// Per stream: the first session saw a prefix, the second a contiguous
	// run ending with the last accepted frame, and they do not overlap.
	var before, after [lanes][]uint32
	for i, got := range []*collector{&got1, &got2} {
		got.mu.Lock()
		for _, f := range got.frames {
			lane, seq := parseSeqFrame(f)
			if i == 0 {
				before[lane] = append(before[lane], seq)
			} else {
				after[lane] = append(after[lane], seq)
			}
		}
		got.mu.Unlock()
	}
	for lane := 0; lane < lanes; lane++ {
		n := atomic.LoadUint32(&accepted[lane])
		for i, s := range before[lane] {
			if s != uint32(i) {
				t.Fatalf("lane %d, first session: frame %d at position %d", lane, s, i)
			}
		}
		aft := after[lane]
		for i, s := range aft {
			if s != aft[0]+uint32(i) {
				t.Fatalf("lane %d, second session: frame %d follows %d", lane, s, aft[i-1])
			}
		}
		lost := int(n) - len(before[lane])
		if len(aft) > 0 {
			if aft[len(aft)-1] != n-1 {
				t.Fatalf("lane %d: last accepted frame is %d, last delivered %d", lane, n-1, aft[len(aft)-1])
			}
			if int(aft[0]) < len(before[lane]) {
				t.Fatalf("lane %d: frame %d delivered by both sessions", lane, aft[0])
			}
			lost = int(aft[0]) - len(before[lane])
		}
		t.Logf("lane %d accepted %d: %d delivered before the crash, %d died with the session, %d kept and delivered after",
			lane, n, len(before[lane]), lost, len(aft))
	}

	// The outbox is healthy again.
	waitFor(t, "Send to accept again", 5*time.Second, func() bool { return a.Send("b", seqFrame(0, 0, 64)) == nil })
}

// TestOutboxBlocksAtCapAndReportsHungPeer: a peer that stops reading fills
// the socket, then the outbox up to its byte cap, where senders block; the
// write deadline turns the stall into a transient send error.
func TestOutboxBlocksAtCapAndReportsHungPeer(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accepted, never read
		}
	}()
	const timeout = 300 * time.Millisecond
	a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"h": hung.Addr().String()}),
		WithWriteTimeout(timeout), WithRetryBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	payload := make([]byte, smallFrame)
	start := time.Now()
	var sendErr error
	for i := 0; i < 1<<20 && sendErr == nil; i++ {
		sendErr = a.Send("h", payload)
	}
	if sendErr == nil || !IsTransient(sendErr) {
		t.Fatalf("streaming to a never-reading peer: %v, want a transient error", sendErr)
	}
	if elapsed := time.Since(start); elapsed > 20*timeout {
		t.Fatalf("the stall surfaced after %v, write timeout %v", elapsed, timeout)
	}
	p := a.peer("h")
	p.mu.Lock()
	queued := p.qBytes
	p.mu.Unlock()
	// The write that timed out may have taken part of its batch first.
	if queued < outboxCap-scratchSize || queued >= outboxCap+len(payload) {
		t.Fatalf("outbox holds %d bytes at the error: senders should have been blocked at the cap of %d", queued, outboxCap)
	}
}

// TestCloseDeliversQueuedFrames: frames Send accepted are on the wire when
// Close returns, queued or not.
func TestCloseDeliversQueuedFrames(t *testing.T) {
	a, b := startPair(t)
	var got collector
	b.SetHandler(got.handle)
	const frames = 5000
	for seq := uint32(0); seq < frames; seq++ {
		if err := a.Send("b", seqFrame(0, seq, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().FramesQueued == 0 {
		t.Fatal("nothing took the outbox: the test streamed too slowly to test anything")
	}
	waitFor(t, "every accepted frame", 10*time.Second, func() bool { return got.count() == frames })
	for i, s := range got.seqs() {
		if s != uint32(i) {
			t.Fatalf("frame %d at position %d", s, i)
		}
	}
}

// gateConn holds every write after the hello until the test lets it pass,
// announcing each on entered.
type gateConn struct {
	net.Conn
	writes  int
	entered chan int
	pass    chan struct{}
}

func (g *gateConn) Write(p []byte) (int, error) {
	if i := g.writes; i > 0 {
		g.entered <- i
		<-g.pass
	}
	g.writes++
	return g.Conn.Write(p)
}

// TestCloseWaitsNoLongerThanTheOwner: Close begins while a sender, letting
// go of the socket, writes the frames that queued behind its own; Close's
// wait for that owner ends when the owner lets go, not when the close
// timeout runs out.
func TestCloseWaitsNoLongerThanTheOwner(t *testing.T) {
	a, b := startPair(t)
	b.SetHandler(func(string, []byte) {})
	gate := &gateConn{entered: make(chan int), pass: make(chan struct{})}
	a.dial = func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		gate.Conn = c
		return gate, err
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send("b", seqFrame(0, 0, 100)) }()
	<-gate.entered // the sender owns the socket, inside its own frame's write
	if err := a.Send("b", seqFrame(0, 1, 100)); err != nil {
		t.Fatal(err)
	}
	gate.pass <- struct{}{}
	<-gate.entered // the owner, letting go, writes the frame queued behind it
	closed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		_ = a.Close()
		closed <- time.Since(start)
	}()
	time.Sleep(50 * time.Millisecond) // Close waits for the owner meanwhile
	gate.pass <- struct{}{}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if d := <-closed; d >= closeFlushTimeout/2 {
		t.Fatalf("Close took %v: it waited out the close timeout for an owner that had let go", d)
	}
}

// TestStatsShowCoalescing reads the traffic instead of guessing it: a
// streaming sender's frames share writes and reads; a sender that pauses
// between frames writes each one itself, alone.
func TestStatsShowCoalescing(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		a, b := startPair(t)
		var got atomic.Int64
		b.SetHandler(func(string, []byte) { got.Add(1) })
		const frames = 20000
		payload := make([]byte, 256)
		for i := 0; i < frames; i++ {
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		// A write's frames are counted once the write returns, which can be
		// after the receiver has them all.
		waitFor(t, "the stream", 10*time.Second, func() bool { return got.Load() == frames && a.Stats().FramesSent >= frames })
		sa, sb := a.Stats(), b.Stats()
		if sa.FramesSent != frames || sb.FramesReceived != frames {
			t.Fatalf("sent %d, received %d, want %d", sa.FramesSent, sb.FramesReceived, frames)
		}
		perWrite := float64(sa.FramesSent) / float64(sa.Writes)
		perRead := float64(sb.FramesReceived) / float64(sb.Reads)
		t.Logf("%.1f frames/write (%d of %d frames queued), %.1f frames/read", perWrite, sa.FramesQueued, frames, perRead)
		if perWrite < 2 || perRead <= 1 {
			t.Fatalf("a stream should coalesce: %.2f frames/write, %.2f frames/read", perWrite, perRead)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		a, b := startPair(t)
		var got atomic.Int64
		b.SetHandler(func(string, []byte) { got.Add(1) })
		const frames = 50
		for i := 0; i < frames; i++ {
			if err := a.Send("b", []byte("tick")); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		waitFor(t, "the ticks", 5*time.Second, func() bool { return got.Load() == frames })
		if st := a.Stats(); st.FramesSent != frames || st.Writes != frames || st.FramesQueued != 0 {
			t.Fatalf("stats %+v: a sparse sender writes each frame itself, %d frames in %d writes, none queued", st, frames, frames)
		}
	})
}

// TestBatchIsSingleFramesBackToBack pins the wire format: however frames
// are grouped into writes, the bytes on the wire are the handshake followed
// by each frame's [uvarint len][payload], so a node that batches and one
// that never did interoperate.
func TestBatchIsSingleFramesBackToBack(t *testing.T) {
	// One write's layout, small and large frames mixed.
	frames := [][]byte{[]byte("one"), bytes.Repeat([]byte{2}, smallFrame+1), {}, bytes.Repeat([]byte{4}, 300)}
	var want []byte
	for _, f := range frames {
		want = appendFrame(want, f)
	}
	var p peer
	if got := bytes.Join(p.assemble(frames), nil); !bytes.Equal(got, want) {
		t.Fatalf("a batch of %d frames is not its frames back to back", len(frames))
	}
	if wantHdr := []byte{3, 'o', 'n', 'e', 0x81, 0x20}; !bytes.HasPrefix(want, wantHdr) {
		t.Fatalf("frame bytes % x, want prefix % x", want[:6], wantHdr)
	}

	// A whole stream as a hand-rolled listener reads it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"raw": l.Addr().String()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	const count = 2000
	stream := appendFrame(nil, []byte("a")) // the hello: name, then epoch
	var body []byte
	for seq := uint32(0); seq < count; seq++ {
		body = appendFrame(body, seqFrame(7, seq, 33))
	}
	read := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			read <- nil
			return
		}
		defer c.Close()
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := testReader(c)
		var got []byte
		for i := 0; i < 2+count; i++ { // name, epoch, then the frames
			f, err := r.next()
			if err != nil {
				read <- nil
				return
			}
			got = appendFrame(got, f)
		}
		read <- got
	}()
	for seq := uint32(0); seq < count; seq++ {
		if err := a.Send("raw", seqFrame(7, seq, 33)); err != nil {
			t.Fatal(err)
		}
	}
	got := <-read
	if got == nil {
		t.Fatal("the listener could not read the stream")
	}
	if !bytes.HasPrefix(got, stream) || !bytes.HasSuffix(got, body) {
		t.Fatal("the stream is not hello + every frame back to back")
	}
	if st := a.Stats(); st.Writes >= st.FramesSent {
		t.Logf("stats %+v: the stream was not batched in this run", st)
	}
}

// TestSendAllocatesNothing: in the steady state no send path allocates per
// frame — the probe's raw connection and closure live on the conn, the
// header goes into the destination's scratch buffer, the queue, the element
// list, the corked list and the backstop timer are reused. The peer is a socket drained by a plain copy
// loop, so the process's allocation count is the sender's.
func TestSendAllocatesNothing(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	a, err := Listen("a", "127.0.0.1:0", StaticResolver(map[string]string{"sink": l.Addr().String()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	// Giving payloads back costs nothing either (this function only counts,
	// so the test may go on reusing its two payloads).
	var released atomic.Int64
	a.SetRelease(func([]byte) { released.Add(1) })
	small, large := make([]byte, 1024), make([]byte, 64<<10)
	send := func(p []byte) {
		if err := a.Send("sink", p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // dial, start the writer, grow queue and element list
		send(small)
	}
	send(large)
	idle := func() bool {
		p := a.peer("sink")
		p.mu.Lock()
		defer p.mu.Unlock()
		return !p.busy && p.pendingLocked() == 0
	}
	cases := []struct {
		name      string
		streaming bool
		run       func()
	}{
		{"inline, small", false, func() { time.Sleep(2 * streakGap); send(small) }},
		{"inline, large", false, func() { send(large) }},
		{"streaming", true, func() {
			for i := 0; i < 100; i++ {
				send(small)
			}
		}},
		{"corked", false, func() {
			for i := 0; i < streakLen; i++ {
				if err := a.SendCorked("sink", small); err != nil {
					t.Fatal(err)
				}
			}
			a.Uncork()
		}},
	}
	for _, c := range cases {
		waitFor(t, "the outbox to drain", 5*time.Second, idle)
		before := a.Stats()
		if avg := testing.AllocsPerRun(200, c.run); avg >= 1 {
			t.Errorf("%s: %.0f allocations per run", c.name, avg)
		}
		after := a.Stats()
		if queued := after.FramesQueued - before.FramesQueued; c.streaming != (queued > 0) {
			t.Errorf("%s: %d of %d frames queued", c.name, queued, after.FramesSent-before.FramesSent)
		}
	}
	waitFor(t, "the outbox to drain", 5*time.Second, idle)
	if sent := a.Stats().FramesSent; released.Load() != sent {
		t.Errorf("%d payloads released, %d frames sent", released.Load(), sent)
	}
}
