// Package tcptransport implements the transport.Transport interface over
// real TCP sockets (stdlib net), reproducing the communication layer of the
// paper's runtime: kernels are named independently of host names, connections
// are opened lazily when the first data object must reach a node, and each
// established connection carries length-prefixed frames in FIFO order.
//
// The wire path degrades gracefully under transient faults instead of
// amplifying them into cluster events:
//
//   - Send classifies errors as transient (refused dials, resets, broken
//     pipes, timeouts) or fatal (closed node, resolver failure) and redials
//     transient ones with capped exponential backoff plus jitter before
//     surfacing anything to the failure detector;
//   - every connection handshake carries a session epoch, monotonic across
//     process restarts, so a receiver detects reconnects, rejects frames of
//     superseded sessions, and the per-sender FIFO contract the engine's
//     duplicate filter depends on survives a redial (a torn frame dies with
//     its connection — the length prefix never resynchronizes mid-stream);
//   - writes carry a deadline, so a hung peer surfaces as a bounded-stall
//     send error (and from there a detector event) instead of blocking a
//     dispatch lane forever.
package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Resolver maps a node name to a dialable TCP address. The kernel name
// server provides one; tests can use a static map.
type Resolver func(name string) (addr string, err error)

// StaticResolver resolves from a fixed name→address table.
func StaticResolver(table map[string]string) Resolver {
	return func(name string) (string, error) {
		addr, ok := table[name]
		if !ok {
			return "", fmt.Errorf("tcptransport: unknown node %q", name)
		}
		return addr, nil
	}
}

// ErrClosed is returned for sends on a closed node. It is fatal: no retry
// can revive a closed endpoint.
var ErrClosed = errors.New("tcptransport: node closed")

// FatalError marks a send failure that retrying cannot fix — the resolver
// does not know the destination, or the local endpoint is gone. Everything
// else on the wire path (refused dials, resets, broken pipes, stalled
// writes) is presumed transient: peers restart.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// IsTransient reports whether a Send error may clear by itself (and was,
// or could be, retried). The engine's suspect-grace window retries
// transient failures before feeding the failure detector; fatal ones
// surface immediately.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var fe *FatalError
	if errors.As(err, &fe) {
		return false
	}
	return !errors.Is(err, ErrClosed)
}

// Send retry tuning: first backoff, cap, and the default overall budget.
const (
	retryBase = 2 * time.Millisecond
	retryCap  = 100 * time.Millisecond
	// DefaultRetryBudget bounds the in-Send redial loop for transient
	// failures. It is deliberately shorter than typical detector grace
	// windows: the transport absorbs the blip, the engine's suspect grace
	// absorbs the outage.
	DefaultRetryBudget = 2 * time.Second
	// DefaultWriteTimeout bounds one frame write; a peer that accepts the
	// connection but stops reading surfaces as a send error after at most
	// this stall.
	DefaultWriteTimeout = 10 * time.Second
)

// Option tunes a Node at Listen time.
type Option func(*Node)

// WithRetryBudget bounds how long Send retries transient failures before
// surfacing them. Zero disables in-Send retries (every failure surfaces
// immediately, classified).
func WithRetryBudget(d time.Duration) Option {
	return func(n *Node) { n.retryBudget = d }
}

// WithWriteTimeout bounds each frame write. Zero disables write deadlines.
func WithWriteTimeout(d time.Duration) Option {
	return func(n *Node) { n.writeTimeout = d }
}

// Node is one TCP-attached cluster endpoint.
type Node struct {
	name         string
	listener     net.Listener
	resolve      Resolver
	retryBudget  time.Duration
	writeTimeout time.Duration
	retries      atomic.Int64

	mu      sync.Mutex
	handler transport.Handler
	conns   map[string]*conn
	// dialEpochs holds the last session epoch this node used toward each
	// destination; sessions holds the highest epoch accepted from each
	// inbound peer. Epochs from different dialers are unrelated — only
	// inbound epochs of the same peer are comparable.
	dialEpochs map[string]uint64
	sessions   map[string]uint64
	closed     bool
	wg         sync.WaitGroup
}

type conn struct {
	mu sync.Mutex // serializes writes
	c  net.Conn
	// inbound connections carry the peer's session epoch; a later epoch
	// from the same peer supersedes them.
	inbound bool
	epoch   uint64
}

// Listen starts a node listening on addr (e.g. "127.0.0.1:0"). The returned
// node's Addr method reports the bound address for registration with a name
// server.
func Listen(name, addr string, resolve Resolver, opts ...Option) (*Node, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		name:         name,
		listener:     l,
		resolve:      resolve,
		retryBudget:  DefaultRetryBudget,
		writeTimeout: DefaultWriteTimeout,
		conns:        make(map[string]*conn),
		dialEpochs:   make(map[string]uint64),
		sessions:     make(map[string]uint64),
	}
	for _, opt := range opts {
		opt(n)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the listening address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// Local implements transport.Transport.
func (n *Node) Local() string { return n.name }

// Retries reports how many transient-failure redial attempts Send has
// made so far.
func (n *Node) Retries() int64 { return n.retries.Load() }

// SessionEpoch reports the highest session epoch accepted from the named
// peer (zero before its first inbound connection). Each reconnect of a
// restarting peer registers a strictly higher epoch.
func (n *Node) SessionEpoch(peer string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sessions[peer]
}

// SetHandler implements transport.Transport.
func (n *Node) SetHandler(h transport.Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(c)
		}()
	}
}

// serveConn handles one inbound connection: the peer first sends its name
// and session epoch, then a stream of frames. A connection whose epoch is
// below the peer's current session is a remnant of a dead session (the
// peer already reconnected) and is rejected outright; a higher epoch
// supersedes — and closes — the previous inbound connection, so frames of
// the old session can never interleave with the new stream.
func (n *Node) serveConn(c net.Conn) {
	peer, err := readFrame(c)
	if err != nil {
		_ = c.Close()
		return
	}
	epochBuf, err := readFrame(c)
	if err != nil {
		_ = c.Close()
		return
	}
	epoch, k := binary.Uvarint(epochBuf)
	if k <= 0 {
		_ = c.Close()
		return
	}
	// A flags byte may trail the epoch varint, asking for a session feature.
	// This node implements none (bit 0 once negotiated per-frame compression
	// and stays reserved), so a dialer that sets any is refused before it
	// can send frames this side would misread.
	if len(epochBuf) > k && epochBuf[k] != 0 {
		_ = c.Close()
		return
	}
	peerName := string(peer)

	n.mu.Lock()
	if n.closed || epoch < n.sessions[peerName] {
		n.mu.Unlock()
		_ = c.Close()
		return
	}
	n.sessions[peerName] = epoch
	if old, ok := n.conns[peerName]; ok && old.inbound && old.epoch < epoch {
		// The peer reconnected (restart or dropped socket): retire the dead
		// session's connection before registering the new one.
		delete(n.conns, peerName)
		_ = old.c.Close()
	}
	// Remember the inbound connection for replies, so two nodes exchanging
	// traffic need only one socket pair (as with the paper's on-demand TCP
	// connections) — unless an existing connection (outbound dial that won
	// a race) already serves the peer.
	if _, exists := n.conns[peerName]; !exists {
		n.conns[peerName] = &conn{c: c, inbound: true, epoch: epoch}
	}
	n.mu.Unlock()

	for {
		payload, err := readFrame(c)
		if err != nil {
			n.dropConn(peerName, c)
			return
		}
		n.mu.Lock()
		stale := n.sessions[peerName] != epoch
		h := n.handler
		n.mu.Unlock()
		if stale {
			// A newer session superseded this one while the frame was in
			// flight; drop it — the peer re-sends on the new session.
			n.dropConn(peerName, c)
			_ = c.Close()
			return
		}
		if h != nil {
			h(peerName, payload)
		}
	}
}

func (n *Node) dropConn(peer string, c net.Conn) {
	_ = c.Close()
	n.mu.Lock()
	if cc, ok := n.conns[peer]; ok && cc.c == c {
		delete(n.conns, peer)
	}
	n.mu.Unlock()
}

// Send implements transport.Transport, dialing the destination lazily on
// first use. Transient failures — refused dials while the peer restarts,
// resets, stalled writes — are redialed with capped exponential backoff
// and jitter until the retry budget runs out; only then (or on a fatal
// error, immediately) does the error surface. A frame whose write failed
// was not fully handed to the kernel, and the failing connection is closed
// before the redial, so the receiver sees at most a torn frame that dies
// with its session — a retried frame is never delivered twice.
func (n *Node) Send(dst string, payload []byte) error {
	err := n.trySend(dst, payload)
	if err == nil || !IsTransient(err) || n.retryBudget <= 0 {
		return err
	}
	deadline := time.Now().Add(n.retryBudget)
	backoff := retryBase
	for {
		// Full jitter on the capped exponential backoff, so senders that
		// failed together do not redial in lockstep.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if time.Now().Add(d).After(deadline) {
			return fmt.Errorf("tcptransport: send to %s: retries exhausted: %w", dst, err)
		}
		time.Sleep(d)
		if backoff < retryCap {
			backoff *= 2
		}
		n.retries.Add(1)
		if err = n.trySend(dst, payload); err == nil || !IsTransient(err) {
			return err
		}
	}
}

// trySend performs one connect-and-write attempt. Header and payload go
// out in a single vectored write (writev on TCP), so bulk frames cost one
// syscall and never split the length prefix from its body across segments
// gratuitously.
func (n *Node) trySend(dst string, payload []byte) error {
	cc, err := n.connTo(dst)
	if err != nil {
		return err
	}
	cc.mu.Lock()
	if connDead(cc.c) {
		cc.mu.Unlock()
		n.dropConn(dst, cc.c)
		return fmt.Errorf("tcptransport: send to %s: connection already closed by peer", dst)
	}
	if n.writeTimeout > 0 {
		_ = cc.c.SetWriteDeadline(time.Now().Add(n.writeTimeout))
	}
	err = writeFrameVec(cc.c, payload)
	cc.mu.Unlock()
	if err != nil {
		n.dropConn(dst, cc.c)
		return err
	}
	return nil
}

// nextEpoch assigns the session epoch for a fresh outbound connection.
// Epochs must grow across process restarts (a restarted sender knows
// nothing of its predecessor's counter), so they start from the wall
// clock and only fall back to prev+1 if the clock stands still or runs
// backwards.
func (n *Node) nextEpoch(dst string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.dialEpochs[dst] + 1
	if now := uint64(time.Now().UnixNano()); now > e {
		e = now
	}
	n.dialEpochs[dst] = e
	return e
}

func (n *Node) connTo(dst string) (*conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if cc, ok := n.conns[dst]; ok {
		n.mu.Unlock()
		return cc, nil
	}
	n.mu.Unlock()

	addr, err := n.resolve(dst)
	if err != nil {
		// The name server does not know the destination; redialing cannot
		// help until registration changes, which real traffic should not
		// wait on.
		return nil, &FatalError{Err: err}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: dial %s (%s): %w", dst, addr, err)
	}
	epoch := n.nextEpoch(dst)
	var eb [binary.MaxVarintLen64]byte
	if err := writeFrame(c, []byte(n.name)); err != nil {
		_ = c.Close()
		return nil, err
	}
	if err := writeFrame(c, eb[:binary.PutUvarint(eb[:], epoch)]); err != nil {
		_ = c.Close()
		return nil, err
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = c.Close()
		return nil, ErrClosed
	}
	if existing, ok := n.conns[dst]; ok {
		// Lost the race with a concurrent dial or an inbound connection.
		n.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	cc := &conn{c: c, epoch: epoch}
	n.conns[dst] = cc
	n.mu.Unlock()

	// Read frames arriving on the outbound connection too (the peer may
	// reply on it rather than dialing back).
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			payload, err := readFrame(c)
			if err != nil {
				n.dropConn(dst, c)
				return
			}
			n.mu.Lock()
			h := n.handler
			n.mu.Unlock()
			if h != nil {
				h(dst, payload)
			}
		}
	}()
	return cc, nil
}

// Close implements transport.Transport.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*conn, 0, len(n.conns))
	for _, cc := range n.conns {
		conns = append(conns, cc)
	}
	n.conns = make(map[string]*conn)
	n.mu.Unlock()
	err := n.listener.Close()
	for _, cc := range conns {
		_ = cc.c.Close()
	}
	n.wg.Wait()
	return err
}

var _ transport.Transport = (*Node)(nil)

const maxFrame = 1 << 30

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:hn]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFrameVec writes one frame ([len][payload]) with a single vectored
// write, without copying the payload.
func writeFrameVec(c net.Conn, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(payload)))
	bufs := net.Buffers{hdr[:hn], payload}
	_, err := bufs.WriteTo(c)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	br := byteReaderFor(r)
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// singleByteReader adapts an io.Reader to io.ByteReader without buffering
// (we must not read ahead past the varint header).
type singleByteReader struct{ r io.Reader }

func (s singleByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func byteReaderFor(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return singleByteReader{r: r}
}
