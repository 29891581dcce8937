package tcptransport

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// The send path's fixed points. None is configurable; each carries the
// measurement that chose it (dps-perf on 2 cores, normalised medians of
// 4 seeds x 12 s, as a ratio to the parent commit's).
const (
	// streakLen sends in a row, each of at most smallFrame bytes and within
	// streakGap of the one before, make a destination "streamed to": from
	// then on Send queues for the writer instead of writing itself.
	//
	//	len x gap       ring_1k  call_fan  life_halo
	//	4 x  50 us       1.88     1.13      0.990
	//	2 x  50 us       1.84     1.23..26  1.010..014
	//	4 x 100 us       1.85     1.41..43  0.984..989
	//	4 x 150 us        -       1.53      0.989
	//	4 x 200 us       1.86     1.59      0.974
	//	always queue     1.86     1.57      0.924
	//
	// ring_1k streams whatever the rule (90 % of its frames are queued,
	// 7.7 per write). call_fan gains with every frame that joins a write.
	// life_halo's border rows follow a 2 ms operation body on both cores; a
	// row left to the writer goroutine waits for a processor, i.e. for a
	// body, which is what queueing everything costs there. 4 x 100 us is the
	// last row before life_halo starts to move beyond its run-to-run spread
	// (1.6 % between quartiles).
	streakLen = 4
	streakGap = 100 * time.Microsecond
	// outboxCap is how many payload bytes a destination's outbox holds
	// before Send blocks, as a write into a full socket buffer blocks.
	// ring_1k never queues more than one flow-control window (64 frames,
	// 70 KiB); 4 MiB leaves bursts alone and bounds what a hung peer pins.
	outboxCap = 4 << 20
	// smallFrame is the largest payload copied behind its header, so that
	// header and payload — and a run of such frames — leave as one
	// contiguous write; larger payloads are written from where they are.
	// Frames above it also never start a streak: queueing ring_64k's 64 KiB
	// frames gained no throughput (coalescing saves a syscall per 64 KiB)
	// and raised its peak_rss_mb from 46 to 54 by parking payloads in the
	// outbox. 4 KiB covers life_halo's rows, the largest frames that
	// arrive in bursts.
	smallFrame = 4 << 10
	// scratchSize bounds the copied part of one write: 64 KiB holds the 64
	// frames of a ring_1k window, the deepest queue seen.
	scratchSize = 64 << 10
	// maxBatchFrames bounds the frames of one write, keeping a vectored
	// write of large frames (two elements each) under IOV_MAX (1024).
	maxBatchFrames = 256
	// corkLimit is how many payload bytes SendCorked holds for one
	// destination before writing them without an uncork; the backstop lets
	// a cork go streakGap after its first frame. Corking ignores the streak
	// rule: the engine corks every token and result an operation execution
	// sends, and a drainer uncorks when its queue runs dry, so a drainer's
	// run of executions is written by the drainer, corkLimit bytes at a
	// time, and not by a writer goroutine that may wait for a processor.
	// 32 KiB is half the scratch buffer, so a cork and the frame that ends
	// it fit one write, and it cuts ring_1k's 64-frame window into two
	// writes. With every drainer corking (2 vCPU, go1.24), ring_1k's writes
	// carry 21 frames instead of 10 and call_fan makes 4.8 socket writes
	// per call instead of 5.3–5.6; the backstop fires on 0.2–0.3 % of
	// call_fan's calls and 0.12 times per life_halo iteration.
	corkLimit = 32 << 10
)

// peer is everything a node keeps per remote name: the session the peer's
// own dials established (receive side), the connection registered as the
// send path, and the outbox.
//
// A destination's socket is written by one goroutine at a time, its owner
// (busy). A Send that finds the destination idle and not streamed to
// becomes the owner and writes its frame itself, returning the write's
// error; every other Send appends to the queue and returns, and the frame
// is written by the current owner or by the destination's writer goroutine.
// A corked frame (SendCorked) joins the same queue but waits for an uncork.
// Ownership, not a mutex, spans the socket write: mu is never held across
// one. FIFO holds because frames are only ever written from the head of
// batch+q, and a frame is written inline only when both are empty.
type peer struct {
	n    *Node
	name string

	session   atomic.Uint64        // highest epoch accepted from the peer's dials
	conn      atomic.Pointer[conn] // send path; set under n.mu, cleared by CAS
	dialEpoch uint64               // last epoch dialed with; under n.mu

	mu     sync.Mutex
	cond   sync.Cond // the writer, senders blocked at the cap, and Close wait here
	q      [][]byte  // accepted frames from q[head:], in order
	head   int
	qBytes int  // payload bytes of batch and q
	busy   bool // some goroutine owns the socket
	// failed is set while the writer, its retry budget spent, still holds
	// frames: Send reports it instead of accepting more, and the writer
	// keeps trying until a write succeeds.
	failed    error
	hasWriter bool // the writer goroutine was started
	streak    int
	last      time.Duration // of the previous Send, since the node started
	// corked counts the payload bytes SendCorked holds for an uncork.
	// While it is non-zero every frame in q is a corked one, and no write
	// takes them; a batch being written is not held back.
	corked int
	// backstop uncorks the destination streakGap after its first corked
	// frame; made on first use and reused, so a burst allocates nothing.
	backstop *time.Timer
	// listed is set while the peer is on the node's corked list; under
	// n.corkMu.
	listed bool

	// batch is the head of the outbox: frames taken off q for the write in
	// progress, or left over from one that failed. Changed under mu, read by
	// the owner during its write.
	batch [][]byte
	// bo paces every owner's attempts after a failed write, inline or
	// queued, and holds the retry budget from the first failure on. Only a
	// write that succeeds on a connection up for a whole budget resets it:
	// a peer that accepts and never reads takes the first writes of every
	// new connection into its socket buffer, and that is not progress. The
	// owner's.
	bo transport.Backoff
	// The owner's buffers for laying out one write.
	scratch []byte
	iov     [][]byte
	bufs    net.Buffers
}

// Send implements transport.Transport, dialing the destination lazily on
// first use.
//
// A frame to a destination that is not being streamed to is written by the
// caller. Transient failures — refused dials while the peer restarts,
// resets, stalled writes — are redialed with capped exponential backoff
// and jitter until the retry budget runs out; only then (or on a fatal
// error, immediately) does the error surface, and the frame stays the
// caller's. A frame whose write failed was not fully handed to the kernel,
// and the failing connection is closed before the redial, so the receiver
// sees at most a torn frame that dies with its session — a retried frame is
// never delivered twice.
//
// A frame to a destination being streamed to (streakLen, streakGap), or
// behind frames still waiting, joins the destination's outbox and Send
// returns nil: the writer goroutine hands everything queued to the kernel
// in one write, with the same probe, deadline, redial and budget. An
// accepted frame is never discarded while the node is open. If the budget
// runs out the outbox keeps its frames, Send returns the error without
// accepting more, and the writer goes on redialing; the stream resumes in
// order when a write succeeds.
func (n *Node) Send(dst string, payload []byte) error {
	return n.send(dst, payload, false)
}

// SendCorked implements transport.Corker. A frame of at most smallFrame
// bytes, to a destination that has no frames queued but corked ones (a
// write in progress does not count), joins the outbox and waits for the
// destination's next write: Uncork's, the one that follows corkLimit bytes
// corked, a Send's, or the backstop's. That holds whether the destination
// is streamed to or not: a corked stream is written by its sender, corkLimit
// bytes at a time, and never waits for the writer goroutine. Any other
// frame takes Send's path.
func (n *Node) SendCorked(dst string, payload []byte) error {
	return n.send(dst, payload, true)
}

// Uncork implements transport.Corker: every destination with corked frames
// gets them in one write, made by the caller unless a write to it is in
// progress, which then carries them.
func (n *Node) Uncork() {
	for n.ncorked.Load() > 0 {
		n.corkMu.Lock()
		k := len(n.corkedPeers) - 1
		if k < 0 {
			n.corkMu.Unlock()
			return
		}
		p := n.corkedPeers[k]
		n.corkedPeers[k] = nil
		n.corkedPeers = n.corkedPeers[:k]
		n.ncorked.Store(int32(k))
		p.listed = false
		n.corkMu.Unlock()
		p.mu.Lock()
		p.uncorkLocked()
		p.mu.Unlock()
	}
}

func (n *Node) send(dst string, payload []byte, cork bool) error {
	p := n.peer(dst)
	now := time.Since(n.start)
	p.mu.Lock()
	inline, err := p.admitLocked(now, payload, cork)
	p.mu.Unlock()
	if !inline {
		return err
	}
	if err = p.sendInline(payload); err == nil {
		n.released(payload)
	}
	p.mu.Lock()
	p.releaseLocked()
	p.mu.Unlock()
	return err
}

// admitLocked decides a frame's path. Either the caller becomes the
// socket's owner and is to write the frame itself (inline), or the frame
// has joined the outbox (nil), corked if cork allows it, or it is refused
// with the outbox's error.
func (p *peer) admitLocked(now time.Duration, payload []byte, cork bool) (inline bool, err error) {
	n := p.n
	streaming := p.noteSendLocked(now, len(payload))
	for p.qBytes >= outboxCap && p.failed == nil && !n.closed.Load() {
		p.cond.Wait()
	}
	switch {
	case n.closed.Load():
		return false, ErrClosed
	case p.failed != nil:
		return false, p.failed
	case cork && len(payload) <= smallFrame && (p.corked > 0 || p.head == len(p.q)):
		p.corkLocked(payload)
		return false, nil
	}
	// Whatever is corked leaves with this frame, ahead of it.
	corked := p.corked > 0
	p.unholdLocked()
	if !streaming && !p.busy && p.pendingLocked() == 0 {
		p.busy = true
		return true, nil
	}
	p.q = append(p.q, payload)
	p.qBytes += len(payload)
	n.stats.framesQueued.Add(1)
	switch {
	case p.busy:
		// The owner writes it, or hands it to the writer, when it is done.
	case streaming && !corked:
		p.wakeWriterLocked()
	default:
		// A sender behind corked frames, or a sparse one behind frames the
		// writer has not got to yet (it waits for a processor): this
		// goroutine is running, so it writes.
		p.busy = true
		p.releaseLocked()
	}
	return false, nil
}

// corkLocked holds a frame for the next uncork, putting the peer on the
// node's corked list and arming the backstop if it is the first.
func (p *peer) corkLocked(payload []byte) {
	n := p.n
	p.q = append(p.q, payload)
	p.qBytes += len(payload)
	n.stats.framesCorked.Add(1)
	if p.corked == 0 {
		n.corkMu.Lock()
		if !p.listed {
			p.listed = true
			n.corkedPeers = append(n.corkedPeers, p)
			n.ncorked.Store(int32(len(n.corkedPeers)))
		}
		n.corkMu.Unlock()
		if p.backstop == nil {
			p.backstop = time.AfterFunc(streakGap, p.backstopFired)
		} else {
			p.backstop.Reset(streakGap)
		}
	}
	p.corked += len(payload)
	if p.corked >= corkLimit {
		p.uncorkLocked()
	}
}

// unholdLocked makes corked frames ordinary pending ones, for whoever
// writes next. The peer may stay on the node's list; Uncork skips it.
func (p *peer) unholdLocked() {
	if p.corked > 0 {
		p.corked = 0
		p.backstop.Stop()
	}
}

// uncorkLocked lets the corked frames go: the caller writes them, unless
// the socket has an owner, which writes them when it lets go.
func (p *peer) uncorkLocked() {
	if p.corked == 0 {
		return
	}
	p.unholdLocked()
	if !p.busy {
		p.busy = true
		p.releaseLocked()
	}
}

// backstopFired uncorks a destination nobody uncorked in time. A firing
// that lost the race with an uncork and finds a newer cork lets that go
// early, which costs a write and nothing else.
func (p *peer) backstopFired() {
	p.mu.Lock()
	if p.corked > 0 {
		p.n.stats.corkTimeouts.Add(1)
		p.uncorkLocked()
	}
	p.mu.Unlock()
}

// noteSendLocked records a Send of size bytes at now, the time since the
// node started, and reports whether the destination is being streamed to.
func (p *peer) noteSendLocked(now time.Duration, size int) bool {
	if size > smallFrame || now-p.last > streakGap {
		p.streak = 0
	} else if p.streak < streakLen {
		p.streak++
	}
	p.last = now
	return p.streak >= streakLen
}

// pendingLocked counts the accepted frames not yet handed to the kernel.
func (p *peer) pendingLocked() int { return len(p.batch) + len(p.q) - p.head }

// writableLocked reports whether frames are pending that no cork holds.
func (p *peer) writableLocked() bool {
	return len(p.batch) > 0 || (p.corked == 0 && p.head < len(p.q))
}

// sendInline writes one frame as the socket's owner, retrying within the
// budget like the writer does.
func (p *peer) sendInline(payload []byte) error {
	n := p.n
	one := [1][]byte{payload}
	for {
		_, err := n.write(p, one[:], n.writeDeadline())
		if err == nil || !IsTransient(err) {
			return err
		}
		d, within := p.bo.Next(n.retryBudget)
		if !within {
			return p.exhausted(err)
		}
		if !transport.Pause(d, n.done) {
			return ErrClosed
		}
	}
}

// exhausted is the error of a transient failure the retry budget did not
// outlast.
func (p *peer) exhausted(err error) error {
	if p.n.retryBudget <= 0 {
		return err // no retry was made
	}
	return fmt.Errorf("tcptransport: send to %s: retries exhausted: %w", p.name, err)
}

// releaseLocked ends the caller's ownership of the socket. Frames that
// queued behind it get one write from the caller first — it is running,
// the writer would have to be scheduled — and what is left after that, or
// fails, is the writer's to retry. A failed write spends the retry budget
// like the writer's own attempts, so a zero budget fails the outbox at once.
func (p *peer) releaseLocked() {
	if p.writableLocked() && !p.n.closed.Load() {
		if _, err := p.flushOnceLocked(p.n.writeDeadline()); err != nil {
			p.failLocked(err)
		}
	}
	p.busy = false
	// closed is read again: Close may have begun during the flush, and its
	// shutdown waits for this owner to let go.
	if p.writableLocked() || p.n.closed.Load() {
		p.wakeWriterLocked()
	}
}

// wakeWriterLocked makes the writer goroutine (and anyone else waiting on
// the peer's state) look again, starting the writer on first use.
func (p *peer) wakeWriterLocked() {
	if p.hasWriter || p.n.closed.Load() {
		p.cond.Broadcast()
		return
	}
	p.hasWriter = true
	// closed was read false under mu, which Close takes for every peer
	// before it waits for the group.
	p.n.wg.Add(1)
	go p.writeLoop()
}

// writeLoop is the destination's writer goroutine: whenever frames are
// pending and nobody owns the socket it takes ownership and writes until
// none is left.
func (p *peer) writeLoop() {
	n := p.n
	defer n.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !n.closed.Load() && (p.busy || !p.writableLocked()) {
			p.cond.Wait()
		}
		if n.closed.Load() {
			return
		}
		p.busy = true
		p.drainLocked()
		p.busy = false
		p.cond.Broadcast() // Close may be waiting for the socket
	}
}

// drainLocked writes batch after batch until nothing is pending. Transient
// failures are redialed with backoff; when the retry budget is spent (or
// the error is fatal) the outbox is marked failed and the attempts continue
// at the capped pace, so the frames leave, in order, as soon as the
// destination is back.
func (p *peer) drainLocked() {
	n := p.n
	for !n.closed.Load() {
		wrote, err := p.flushOnceLocked(n.writeDeadline())
		if !wrote {
			return
		}
		if err == nil {
			continue
		}
		d := p.failLocked(err)
		p.mu.Unlock()
		transport.Pause(d, n.done)
		p.mu.Lock()
	}
}

// failLocked takes a failed write of the outbox's head: past the retry
// budget, or on a fatal error, the outbox is marked failed and senders
// blocked at the cap get the error. It returns the pause before the next
// attempt.
func (p *peer) failLocked(err error) time.Duration {
	d, within := p.bo.Next(p.n.retryBudget)
	if !IsTransient(err) {
		p.failed = err
	} else if !within {
		p.failed = p.exhausted(err)
	}
	if p.failed != nil {
		p.cond.Broadcast()
	}
	return d
}

// flushOnceLocked makes one attempt to write the head of the outbox, corked
// frames excepted, in a single socket write, releasing mu around it, and
// reports whether there was anything to write. The caller owns the socket.
// Frames the kernel took whole leave the outbox even when the write failed
// part-way; the rest stay at its head.
func (p *peer) flushOnceLocked(deadline time.Time) (bool, error) {
	if len(p.batch) == 0 && p.corked == 0 {
		p.takeLocked()
	}
	b := p.batch
	if len(b) == 0 {
		return false, nil
	}
	p.mu.Unlock()
	k, err := p.n.write(p, b, deadline)
	p.n.released(b[:k]...)
	p.mu.Lock()
	full := p.qBytes >= outboxCap
	for _, f := range b[:k] {
		p.qBytes -= len(f)
	}
	m := copy(p.batch, b[k:])
	clear(p.batch[m:])
	p.batch = p.batch[:m]
	if err == nil {
		p.failed = nil
	}
	if full && p.qBytes < outboxCap {
		p.cond.Broadcast()
	}
	return true, err
}

// takeLocked moves frames from the queue into batch: as many as one write's
// scratch buffer and element list hold, at least one.
func (p *peer) takeLocked() {
	room := scratchSize
	for p.head < len(p.q) && len(p.batch) < maxBatchFrames {
		f := p.q[p.head]
		need := binary.MaxVarintLen64
		if len(f) <= smallFrame {
			need += len(f)
		}
		if need > room {
			break
		}
		room -= need
		p.batch = append(p.batch, f)
		p.q[p.head] = nil
		p.head++
	}
	switch {
	case p.head == len(p.q):
		p.q, p.head = p.q[:0], 0
	case p.head >= len(p.q)/2:
		// Slide the live half down so append reuses the dead prefix.
		m := copy(p.q, p.q[p.head:])
		clear(p.q[m:])
		p.q, p.head = p.q[:m], 0
	}
}

// shutdown is Close's part for one destination: wait for the socket's owner
// to let go (an in-flight write is cut short), then give what is still
// queued one last write on the connection that exists. An owner that does
// not let go in time — stuck in a dial, say — keeps the socket; Close then
// closes it under its hands.
func (p *peer) shutdown() {
	deadline := time.Now().Add(closeFlushTimeout)
	if cc := p.conn.Load(); cc != nil {
		_ = cc.c.SetWriteDeadline(deadline)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unholdLocked()
	p.cond.Broadcast()
	if p.busy {
		t := time.AfterFunc(closeFlushTimeout, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer t.Stop()
		for p.busy && time.Now().Before(deadline) {
			p.cond.Wait()
		}
		if p.busy {
			return
		}
	}
	p.busy = true
	for {
		// The node is closed, so write finds the registered connection or
		// fails without dialing.
		if wrote, err := p.flushOnceLocked(deadline); !wrote || err != nil {
			break
		}
	}
	p.busy = false
	p.cond.Broadcast()
}

// write makes one attempt to hand frames to the kernel in a single socket
// write, dialing if p has no connection; probe and deadline are paid once
// per write, not per frame. It reports how many frames went out whole: all
// of them on success; on failure the connection is dropped, so a torn frame
// dies with its session and the frames before it are never sent again.
// Only the socket's owner calls it.
func (n *Node) write(p *peer, frames [][]byte, deadline time.Time) (int, error) {
	if p.bo.Failing() {
		n.stats.retries.Add(1) // a write since the last failure counts against the budget
	}
	cc, err := n.connTo(p)
	if err != nil {
		return 0, err
	}
	if cc.probe.dead() {
		n.dropConn(p, cc)
		return 0, fmt.Errorf("tcptransport: send to %s: connection already closed by peer", p.name)
	}
	if !deadline.IsZero() {
		_ = cc.c.SetWriteDeadline(deadline)
	}
	iov := p.assemble(frames)
	var wrote int64
	if len(iov) == 1 {
		var m int
		m, err = cc.c.Write(iov[0])
		wrote = int64(m)
	} else {
		p.bufs = iov
		wrote, err = p.bufs.WriteTo(cc.c)
	}
	n.stats.writes.Add(1)
	k := len(frames)
	if err == nil {
		if p.bo.Failing() && time.Since(cc.opened) >= n.retryBudget {
			p.bo = transport.Backoff{}
		}
	} else {
		n.dropConn(p, cc)
		k = 0
		for _, f := range frames {
			size := int64(uvarintLen(uint64(len(f))) + len(f))
			if wrote < size {
				break
			}
			wrote -= size
			k++
		}
	}
	clear(iov) // payloads are the caller's again on failure, garbage on success
	n.stats.framesSent.Add(int64(k))
	return k, err
}

// released gives up payloads the kernel took whole: each was accepted by a
// Send that returned nil, or is about to be, and is never written again.
func (n *Node) released(payloads ...[]byte) {
	if release := n.release.Load(); release != nil {
		for _, f := range payloads {
			(*release)(f)
		}
	}
}

// writeDeadline is the deadline of a write starting now; zero for none. It
// is the one wall-clock read of a Send.
func (n *Node) writeDeadline() time.Time {
	if n.writeTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(n.writeTimeout)
}

// assemble lays frames out for one write: every header, and every payload
// of at most smallFrame bytes, is copied into the scratch buffer, so a run
// of small frames is one contiguous element; a larger payload stays where
// it is and becomes an element of its own. The caller passes no more than
// the scratch holds (one frame, or what takeLocked admitted), so the
// scratch never reallocates under the elements that point into it.
func (p *peer) assemble(frames [][]byte) [][]byte {
	need := scratchSize
	if len(frames) == 1 {
		// A destination only ever written inline never pays for a batch.
		need = binary.MaxVarintLen64 + smallFrame
	}
	if cap(p.scratch) < need {
		p.scratch = make([]byte, 0, need)
	}
	s, iov, seg := p.scratch[:0], p.iov[:0], 0
	for _, f := range frames {
		if len(f) <= smallFrame {
			s = appendFrame(s, f)
			continue
		}
		s = binary.AppendUvarint(s, uint64(len(f)))
		iov = append(iov, s[seg:], f)
		seg = len(s)
	}
	if seg < len(s) {
		iov = append(iov, s[seg:])
	}
	p.iov = iov
	return iov
}

// appendFrame appends payload's wire form, [uvarint len][payload], to dst.
func appendFrame(dst, payload []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(payload))), payload...)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
