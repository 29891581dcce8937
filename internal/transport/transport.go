// Package transport defines the byte-level communication layer the DPS
// runtime sits on. The paper's runtime performs communications over TCP
// sockets, bypassing the network layer for same-address-space transfers;
// this package generalizes that into a small interface with three
// implementations:
//
//   - Inproc: all nodes in one process, direct handoff (unit tests, local mode);
//   - SimNode: virtual cluster over internal/simnet (the experiment
//     substrate);
//   - TCP (package tcptransport): real sockets via net, used by the kernel
//     runtime (cmd/dps-kernel).
//
// A Transport instance represents one node's attachment point. Handlers are
// invoked sequentially per source (FIFO per sender), mirroring TCP stream
// ordering assumed by the DPS controller.
//
// Payload ownership has one rule. A sent payload is the transport's once
// Send accepts it, and comes back through the sender's Releaser when the
// transport has no further use for it. A received payload is lent to the
// Handler for the call: the transport reuses its bytes once the Handler
// returns, so a Handler copies out whatever it keeps.
//
// Optional interfaces extend Send. One is Corker, which lets a sender cork
// a burst so that it leaves in one write. SendCorked takes ownership of a
// payload as Send does and keeps FIFO order with Send. It holds a frame
// until Uncork, and at most for 100 µs or until the next point a processor
// is free, whichever is later.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Handler consumes an incoming message from a peer node. The payload is
// lent for the call: the transport reuses or releases it once the Handler
// returns, so the Handler copies out whatever it keeps.
type Handler func(src string, payload []byte)

// Colocated is optionally implemented by transports whose endpoints can
// share the sender's address space. When Colocated(dst) reports true, the
// engine may bypass the transport entirely for traffic to dst and hand
// pointers across directly (unless ForceSerialize is set) — the paper's
// same-address-space shortcut, extended from "same node name" to "same
// process". Only genuinely cost-free fabrics should implement it: the
// simulated network deliberately does not, as bypassing it would skip the
// modelled wire time and the fault injection that tests depend on.
type Colocated interface {
	Colocated(dst string) bool
}

// Releaser is optionally implemented by transports that know when a sent
// payload has no reader left: the function installed with SetRelease is
// called exactly once for each payload whose Send returned nil, as soon as
// the transport has no further use for it, and never for a payload whose
// Send returned an error (that one stays the caller's). tcptransport
// releases a payload once it is written; the in-process fabrics release it
// through the receiving node's function once its Handler has returned. A
// payload still unwritten when the node closes, or lost in flight, is not
// released. With no function installed nothing is called, and a sender may
// then pass the same bytes to Send again after it returns. SetRelease must
// be called before the first Send.
type Releaser interface {
	SetRelease(release func(payload []byte))
}

// Borrower is optionally implemented by transports that build a frame of
// their own around each sent payload (a kernel's application port). With
// SetBorrow the sender's side lends the buffers for those frames: borrow(n)
// returns an empty buffer with room for n bytes, which the transport gives
// back through the Releaser function once written. SetBorrow must be called
// before the first Send.
type Borrower interface {
	SetBorrow(borrow func(n int) []byte)
}

// Corker is optionally implemented by transports that can hold a sender's
// burst and hand it to the network in one piece (see the package doc for
// the contract). SendCorked differs from Send only in when the frame is
// written: ownership passes on a nil return and stays with the caller on
// an error, and a Send to the same destination carries the corked frames
// ahead of its own. A corked frame waits to share a write until Uncork,
// until the frames held for its destination fill a write, or until the
// backstop lets it go, so a sender that never uncorks is slowed, never
// stalled. Uncork writes everything held on the node, whoever corked it;
// with nothing held it costs an atomic load.
//
// The engine corks every token and result an operation execution sends. A
// drainer uncorks when its queue runs dry, and an execution uncorks where
// it blocks or panics. The in-process fabrics have no writes to save and do
// not implement it.
type Corker interface {
	SendCorked(dst string, payload []byte) error
	Uncork()
}

// Transport is one node's attachment to the cluster fabric.
type Transport interface {
	// Local returns this node's cluster-unique name.
	Local() string
	// Send transmits payload to the named peer. It may buffer; delivery is
	// asynchronous but FIFO per (sender, destination) pair. On a nil
	// return ownership of the payload has transferred to the transport:
	// the sender must not modify or reuse it (on in-process fabrics the
	// same bytes are handed to the receiving Handler; tcptransport may
	// still hold them in a destination's outbox; a Releaser says when it
	// is done with them). On an error the payload was not accepted and
	// stays the caller's, who may send it again.
	//
	// An error is about the destination, not necessarily about this
	// payload: a transport that buffers reports a failure of earlier,
	// accepted payloads on a later Send — it keeps those and delivers
	// them, in order, once the destination is reachable again — so a nil
	// return means "accepted and will not be dropped while this node is
	// open", and the first non-nil return after a fault is when the
	// caller learns of it.
	//
	// Every transport follows one retry rule: Send absorbs transient
	// faults (a refused dial, a reset connection, a healed partition)
	// within its own retry budget, paced by a Backoff, and any error it
	// returns is final. The caller sends once and treats an error as the
	// destination's failure.
	Send(dst string, payload []byte) error
	// SetHandler installs the receive callback. Must be called before any
	// peer sends to this node.
	SetHandler(h Handler)
	// Close detaches the node.
	Close() error
}

// Backoff paces the attempts that follow a failed send: capped exponential
// steps, each pause drawn from the step's upper half so senders that failed
// together do not retry in lockstep, inside an overall budget counted from
// the first failure. The zero value has seen no failure; assigning
// Backoff{} resets it.
type Backoff struct {
	step     time.Duration
	deadline time.Time
}

// Retry pacing: the first step and the cap.
const (
	retryBase = 2 * time.Millisecond
	retryCap  = 100 * time.Millisecond
)

// Next returns the pause before the next attempt and whether that attempt
// still falls within the budget.
func (b *Backoff) Next(budget time.Duration) (time.Duration, bool) {
	if b.step == 0 {
		b.step = retryBase
		b.deadline = time.Now().Add(budget)
	}
	d := b.step/2 + time.Duration(rand.Int63n(int64(b.step/2)+1))
	if b.step < retryCap {
		b.step *= 2
	}
	return d, budget > 0 && !time.Now().Add(d).After(b.deadline)
}

// Failing reports whether Next was called since b was made or reset.
func (b *Backoff) Failing() bool { return b.step != 0 }

// Pause sleeps for d, the pause Next returned, or until done is closed
// (false): a closing node stops retrying at once.
func Pause(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// Inproc is an in-process fabric connecting any number of nodes with direct
// (cost-free) delivery. It preserves per-sender FIFO by running one delivery
// goroutine per node.
type Inproc struct {
	mu    sync.RWMutex
	nodes map[string]*InprocNode
}

// NewInproc creates an empty in-process fabric.
func NewInproc() *Inproc {
	return &Inproc{nodes: make(map[string]*InprocNode)}
}

// InprocNode is one endpoint of an Inproc fabric.
type InprocNode struct {
	fabric *Inproc
	name   string

	mu      sync.Mutex
	handler Handler
	release func(payload []byte)
	queue   chan inMsg
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

type inMsg struct {
	src     string
	payload []byte
}

// Node attaches a new named endpoint.
func (f *Inproc) Node(name string) (*InprocNode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		return nil, fmt.Errorf("transport: duplicate inproc node %q", name)
	}
	n := &InprocNode{
		fabric: f,
		name:   name,
		queue:  make(chan inMsg, 4096),
		done:   make(chan struct{}),
	}
	f.nodes[name] = n
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// Close shuts down every node of the fabric.
func (f *Inproc) Close() {
	f.mu.Lock()
	nodes := make([]*InprocNode, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()
	for _, n := range nodes {
		_ = n.Close()
	}
}

func (n *InprocNode) loop() {
	defer n.wg.Done()
	for {
		select {
		case m := <-n.queue:
			n.deliver(m)
		case <-n.done: // drain what was queued, then stop
			select {
			case m := <-n.queue:
				n.deliver(m)
			default:
				return
			}
		}
	}
}

// deliver lends a payload to the handler and releases it once it returns.
func (n *InprocNode) deliver(m inMsg) {
	n.mu.Lock()
	h, release := n.handler, n.release
	n.mu.Unlock()
	if h != nil {
		h(m.src, m.payload)
	}
	if release != nil {
		release(m.payload)
	}
}

// Local implements Transport.
func (n *InprocNode) Local() string { return n.name }

// SetHandler implements Transport.
func (n *InprocNode) SetHandler(h Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

// SetRelease implements Releaser: every payload delivered to this node is
// released through release once its handler has returned.
func (n *InprocNode) SetRelease(release func(payload []byte)) {
	n.mu.Lock()
	n.release = release
	n.mu.Unlock()
}

// Send implements Transport.
func (n *InprocNode) Send(dst string, payload []byte) error {
	n.fabric.mu.RLock()
	peer, ok := n.fabric.nodes[dst]
	n.fabric.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: unknown inproc node %q", dst)
	}
	select {
	case peer.queue <- inMsg{src: n.name, payload: payload}:
		return nil
	case <-peer.done:
		return fmt.Errorf("transport: inproc node %q closed", dst)
	}
}

// Colocated implements the engine's same-process fast-path probe: every
// node of an Inproc fabric shares the sender's address space.
func (n *InprocNode) Colocated(dst string) bool {
	n.fabric.mu.RLock()
	_, ok := n.fabric.nodes[dst]
	n.fabric.mu.RUnlock()
	return ok
}

// Close implements Transport.
func (n *InprocNode) Close() error {
	n.once.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.fabric.mu.Lock()
		delete(n.fabric.nodes, n.name)
		n.fabric.mu.Unlock()
	})
	return nil
}

var (
	_ Transport = (*InprocNode)(nil)
	_ Releaser  = (*InprocNode)(nil)
)
