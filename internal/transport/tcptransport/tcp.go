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
//
// The file split follows the data: tcp.go owns nodes, handshakes and the
// connection registry, send.go the per-destination send path (inline write,
// outbox or cork), recv.go the buffered receive loop.
package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
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
	// DefaultRetryBudget bounds the redial loop for transient failures. It
	// is deliberately shorter than typical detector grace windows: the
	// transport absorbs the blip, the engine's suspect grace absorbs the
	// outage.
	DefaultRetryBudget = 2 * time.Second
	// DefaultWriteTimeout bounds one socket write; a peer that accepts the
	// connection but stops reading surfaces as a send error after at most
	// this stall.
	DefaultWriteTimeout = 10 * time.Second
	// closeFlushTimeout bounds what Close spends per destination on writes
	// still in flight and on the last write of queued frames.
	closeFlushTimeout = time.Second
)

// Option tunes a Node at Listen time.
type Option func(*Node)

// WithRetryBudget bounds how long a failing write is redialed before the
// failure surfaces. Zero disables retries (every failure surfaces
// immediately, classified).
func WithRetryBudget(d time.Duration) Option {
	return func(n *Node) { n.retryBudget = d }
}

// WithWriteTimeout bounds each socket write. Zero disables write deadlines.
func WithWriteTimeout(d time.Duration) Option {
	return func(n *Node) { n.writeTimeout = d }
}

// Stats counts a node's traffic since Listen. Frames over writes (reads)
// is how many frames one socket write (read) carries; FramesQueued is how many
// frames took the outbox rather than the caller's own write.
type Stats struct {
	FramesSent   int64 // frames wholly handed to the kernel
	Writes       int64 // socket writes attempted (write or writev)
	FramesQueued int64 // frames accepted into an outbox, corked ones not counted
	// FramesCorked counts the frames SendCorked held for an uncork.
	FramesCorked int64
	// CorkTimeouts counts the backstop's firings: destinations whose corked
	// frames nobody uncorked within streakGap.
	CorkTimeouts   int64
	Dials          int64 // outbound connection attempts
	Retries        int64 // attempts repeated after a transient failure
	FramesReceived int64 // frames delivered to the handler
	Reads          int64 // socket reads
}

// Node is one TCP-attached cluster endpoint.
type Node struct {
	name         string
	listener     net.Listener
	resolve      Resolver
	retryBudget  time.Duration
	writeTimeout time.Duration
	// dial opens the socket to a resolved address; tests substitute
	// scripted connections.
	dial func(addr string) (net.Conn, error)

	stats struct {
		framesSent, writes, framesQueued, framesCorked, corkTimeouts, dials, retries, framesReceived, reads atomic.Int64
	}
	handler atomic.Pointer[transport.Handler]
	release atomic.Pointer[func([]byte)]     // transport.Releaser; nil: payloads are just dropped
	borrow  atomic.Pointer[func(int) []byte] // transport.Borrower; nil: every frame is read into a buffer of its own
	peers   sync.Map                         // name → *peer; entries are never removed
	closed  atomic.Bool
	done    chan struct{} // closed by Close: interrupts backoff sleeps

	// corkedPeers lists the destinations that got a corked frame since
	// Uncork last took them off (some may have been written since);
	// ncorked mirrors its length for Uncork's lock-free check.
	corkMu      sync.Mutex
	corkedPeers []*peer
	ncorked     atomic.Int32

	// mu orders handshakes, registrations and Close; no per-frame path
	// takes it.
	mu sync.Mutex
	// socks holds every socket accepted or dialed and still being read,
	// registered as a send path or not, so Close can end all their readers.
	socks map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// conn is one established socket and what writing to it needs.
type conn struct {
	c net.Conn
	// inbound connections carry the peer's session epoch; a later epoch
	// from the same peer supersedes them.
	inbound bool
	epoch   uint64
	probe   liveness
	opened  time.Time
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
		dial:         func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		done:         make(chan struct{}),
		socks:        make(map[net.Conn]struct{}),
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

// Stats returns the node's traffic counters.
func (n *Node) Stats() Stats {
	s := &n.stats
	return Stats{
		FramesSent:     s.framesSent.Load(),
		Writes:         s.writes.Load(),
		FramesQueued:   s.framesQueued.Load(),
		FramesCorked:   s.framesCorked.Load(),
		CorkTimeouts:   s.corkTimeouts.Load(),
		Dials:          s.dials.Load(),
		Retries:        s.retries.Load(),
		FramesReceived: s.framesReceived.Load(),
		Reads:          s.reads.Load(),
	}
}

// SessionEpoch reports the highest session epoch accepted from the named
// peer (zero before its first inbound connection). Each reconnect of a
// restarting peer registers a strictly higher epoch.
func (n *Node) SessionEpoch(name string) uint64 {
	if p, ok := n.peers.Load(name); ok {
		return p.(*peer).session.Load()
	}
	return 0
}

// SetHandler implements transport.Transport.
func (n *Node) SetHandler(h transport.Handler) { n.handler.Store(&h) }

// SetRelease implements transport.Releaser: release is called once for each
// payload a Send accepted, when the kernel has taken the frame whole — after
// the caller's own write, the outbox's write (the frames ahead of a torn one
// included, before the redial) or Close's last flush.
func (n *Node) SetRelease(release func(payload []byte)) { n.release.Store(&release) }

// SetBorrow implements transport.Borrower: every frame up to readChunk
// bytes is read into a buffer from borrow, sized to the frame, and handed
// to the handler in it.
func (n *Node) SetBorrow(borrow func(int) []byte) { n.borrow.Store(&borrow) }

// lender is the installed transport.Borrower function, or nil.
func (n *Node) lender() func(int) []byte {
	if b := n.borrow.Load(); b != nil {
		return *b
	}
	return nil
}

// peer returns the state kept per remote node name, creating it on first
// use.
func (n *Node) peer(name string) *peer {
	if p, ok := n.peers.Load(name); ok {
		return p.(*peer)
	}
	p := &peer{n: n, name: name}
	p.cond.L = &p.mu
	if prev, loaded := n.peers.LoadOrStore(name, p); loaded {
		return prev.(*peer)
	}
	return p
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

// trackLocked records a socket whose reader is about to start, unless the
// node closed first (false): the caller closes it instead.
func (n *Node) trackLocked(c net.Conn) bool {
	if n.closed.Load() {
		return false
	}
	n.socks[c] = struct{}{}
	return true
}

// untrack closes a socket whose reader ended and forgets it, as a send path
// too if it was one.
func (n *Node) untrack(p *peer, cc *conn) {
	n.dropConn(p, cc)
	n.mu.Lock()
	delete(n.socks, cc.c)
	n.mu.Unlock()
}

// dropConn closes a connection and retires it as p's send path.
func (n *Node) dropConn(p *peer, cc *conn) {
	_ = cc.c.Close()
	p.conn.CompareAndSwap(cc, nil)
}

// serveConn handles one inbound connection: the peer first sends its name
// and session epoch, then a stream of frames. A connection whose epoch is
// below the peer's current session is a remnant of a dead session (the
// peer already reconnected) and is rejected outright; a higher epoch
// supersedes — and closes — the previous inbound connection, so frames of
// the old session can never interleave with the new stream.
func (n *Node) serveConn(c net.Conn) {
	br := n.reader(c)
	name, epoch, err := readHello(br)
	if err != nil {
		_ = c.Close()
		return
	}
	p := n.peer(name)
	cc := newConn(c, true, epoch)

	n.mu.Lock()
	if epoch < p.session.Load() || !n.trackLocked(c) {
		n.mu.Unlock()
		_ = c.Close()
		return
	}
	p.session.Store(epoch)
	if old := p.conn.Load(); old != nil && old.inbound && old.epoch < epoch {
		// The peer reconnected (restart or dropped socket): retire the dead
		// session's connection before registering the new one.
		n.dropConn(p, old)
	}
	// Remember the inbound connection for replies, so two nodes exchanging
	// traffic need only one socket pair (as with the paper's on-demand TCP
	// connections) — unless an existing connection (outbound dial that won
	// a race) already serves the peer. The socket is read either way: when
	// both sides dialed at once each sends on the one it registered, and
	// what arrives on the other is the peer's traffic all the same.
	p.conn.CompareAndSwap(nil, cc)
	n.mu.Unlock()

	n.readLoop(br, p, cc)
}

// readHello reads a connection's first two frames: the dialer's name and
// its session epoch.
func readHello(br *bufio.Reader) (name string, epoch uint64, err error) {
	nameBuf, err := readFrame(br, nil)
	if err != nil {
		return "", 0, err
	}
	epochBuf, err := readFrame(br, nil)
	if err != nil {
		return "", 0, err
	}
	epoch, k := binary.Uvarint(epochBuf)
	if k <= 0 {
		return "", 0, errors.New("tcptransport: malformed session epoch")
	}
	// A flags byte may trail the epoch varint, asking for a session feature.
	// This node implements none (bit 0 once negotiated per-frame compression
	// and stays reserved), so a dialer that sets any is refused before it
	// can send frames this side would misread.
	if len(epochBuf) > k && epochBuf[k] != 0 {
		return "", 0, errors.New("tcptransport: unsupported session flags")
	}
	return string(nameBuf), epoch, nil
}

// nextEpochLocked assigns the session epoch for a fresh outbound
// connection. Epochs must grow across process restarts (a restarted sender
// knows nothing of its predecessor's counter), so they start from the wall
// clock and only fall back to prev+1 if the clock stands still or runs
// backwards.
func (n *Node) nextEpochLocked(p *peer) uint64 {
	e := p.dialEpoch + 1
	if now := uint64(time.Now().UnixNano()); now > e {
		e = now
	}
	p.dialEpoch = e
	return e
}

// connTo returns p's send path, dialing it if there is none. Only the
// goroutine that owns p's socket (see peer) calls it, so a node never has
// two dials to one destination in flight.
func (n *Node) connTo(p *peer) (*conn, error) {
	if cc := p.conn.Load(); cc != nil {
		return cc, nil
	}
	if n.closed.Load() {
		return nil, ErrClosed
	}
	addr, err := n.resolve(p.name)
	if err != nil {
		// The name server does not know the destination; redialing cannot
		// help until registration changes, which real traffic should not
		// wait on.
		return nil, &FatalError{Err: err}
	}
	n.stats.dials.Add(1)
	c, err := n.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: dial %s (%s): %w", p.name, addr, err)
	}
	n.mu.Lock()
	epoch := n.nextEpochLocked(p)
	n.mu.Unlock()
	var eb [binary.MaxVarintLen64]byte
	hello := appendFrame(appendFrame(nil, []byte(n.name)), eb[:binary.PutUvarint(eb[:], epoch)])
	if _, err := c.Write(hello); err != nil {
		_ = c.Close()
		return nil, err
	}

	cc := newConn(c, false, epoch)
	n.mu.Lock()
	if !n.trackLocked(c) {
		n.mu.Unlock()
		_ = c.Close()
		return nil, ErrClosed
	}
	// An inbound connection may have registered while this one was being
	// dialed. The hello is out, so the peer may already have made this
	// socket its own send path: it stays open and read, never closed, and
	// this side keeps sending on the one registered first.
	use := cc
	for !p.conn.CompareAndSwap(nil, cc) {
		if use = p.conn.Load(); use != nil {
			break
		}
	}
	// Read frames arriving on the outbound connection too (the peer may
	// reply on it rather than dialing back).
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.readLoop(n.reader(c), p, cc)
	}()
	return use, nil
}

// Close implements transport.Transport. Frames an outbox accepted get one
// last write on the connection that exists (nothing is redialed); then
// every socket the node reads is closed, so Close returns without waiting
// for any peer to close its end.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed.Swap(true) {
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	close(n.done)
	err := n.listener.Close()
	n.peers.Range(func(_, v any) bool {
		v.(*peer).shutdown()
		return true
	})
	// closed was set under mu, so every later trackLocked refuses: socks
	// only shrinks from here.
	n.mu.Lock()
	for c := range n.socks {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

var (
	_ transport.Transport = (*Node)(nil)
	_ transport.Releaser  = (*Node)(nil)
	_ transport.Borrower  = (*Node)(nil)
	_ transport.Corker    = (*Node)(nil)
)

func newConn(c net.Conn, inbound bool, epoch uint64) *conn {
	cc := &conn{c: c, inbound: inbound, epoch: epoch, opened: time.Now()}
	cc.probe.arm(c)
	return cc
}

// reader wraps a socket in the connection's one buffered reader, counting
// the reads that reach the socket.
func (n *Node) reader(c net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(&countedReader{r: c, n: &n.stats.reads}, readBufSize)
}
