package kernel

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// Kernel is one node daemon of the DPS runtime environment. It owns a
// single TCP endpoint and multiplexes any number of applications over it;
// each application attaches through Transport(appName), which yields a
// transport.Transport whose node name is the kernel name.
//
// Lazy launch: if a message arrives for an application that has no local
// instance but a registered factory, the kernel invokes the factory — the
// paper's "when an application thread posts a data object to a thread
// running on a node where there is no active instance of the application,
// the kernel on that node starts a new instance" — and queues messages
// until the instance installs its handler.
type Kernel struct {
	name   string
	nsAddr string
	node   *tcptransport.Node

	mu         sync.Mutex
	ports      map[string]*appPort
	factories  map[string]func(*Kernel) error
	launched   map[string]bool
	pending    map[string][]pendingMsg
	resolved   map[string]string // kernel name -> addr cache
	onRemap    func(RemapRequest) error
	onFailover func(peer string)
	onTrace    func(id uint64) []trace.Span
	traceWait  map[uint64]chan []trace.Span // collections in flight (CollectTrace)
	lastSeen   map[string]time.Time         // heartbeat: last pong (or discovery) per peer
	deadPeers  map[string]bool
	pinging    map[string]bool // one heartbeat send in flight per peer
	// Missed-pong backoff: pingSkip[peer] rounds are skipped before the
	// next probe of a silent peer, doubling (pingBackoff) up to a cap below
	// the death deadline — a restarting peer is probed gently, not hammered.
	pingSkip    map[string]int
	pingBackoff map[string]int
	hbStop      chan struct{}
	closed      bool

	// release returns a received kernel frame to the pool the node borrowed
	// it from (appPort.SetRelease); nil until an application installs one.
	release atomic.Pointer[func([]byte)]
}

// OnFailover installs the handler invoked when a peer kernel is declared
// dead — by this kernel's own heartbeat or by a death notice broadcast
// from another kernel. The typical handler feeds the engine's recovery:
// app.FailNode(peer). It runs on its own goroutine.
func (k *Kernel) OnFailover(fn func(peer string)) {
	k.mu.Lock()
	k.onFailover = fn
	k.mu.Unlock()
}

// StartHeartbeat begins probing every kernel registered with the name
// server at the given interval. A peer that answers no ping for misses
// consecutive intervals is declared dead: the kernel fires its OnFailover
// handler and broadcasts a death notice so every other kernel converges.
// Newly registered kernels are picked up on the next round. Heartbeats
// stop when the kernel closes.
func (k *Kernel) StartHeartbeat(interval time.Duration, misses int) {
	if misses < 1 {
		misses = 3
	}
	k.mu.Lock()
	if k.hbStop != nil || k.closed {
		k.mu.Unlock()
		return
	}
	k.hbStop = make(chan struct{})
	k.lastSeen = make(map[string]time.Time)
	k.deadPeers = make(map[string]bool)
	stop := k.hbStop
	k.mu.Unlock()

	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				k.heartbeatRound(interval, misses)
			}
		}
	}()
}

// heartbeatRound pings the current name-server peers and declares the
// silent ones dead.
func (k *Kernel) heartbeatRound(interval time.Duration, misses int) {
	grace := time.Duration(misses) * interval
	names, err := ListNames(k.nsAddr)
	if err != nil {
		return
	}
	now := time.Now()
	var dead []string
	k.mu.Lock()
	for peer := range names {
		if peer == k.name || k.deadPeers[peer] {
			continue
		}
		if _, ok := k.lastSeen[peer]; !ok {
			k.lastSeen[peer] = now // discovery grace period
		}
		if now.Sub(k.lastSeen[peer]) > grace {
			dead = append(dead, peer)
		}
	}
	k.mu.Unlock()
	for _, peer := range dead {
		k.peerDied(peer)
	}
	// Ping after the age check, so a peer has a full round to answer. A
	// failing send is itself a strike: lastSeen simply stays old. Pings go
	// out concurrently, one in flight per peer — a peer whose TCP dial
	// blocks for seconds must not stall the round and starve the healthy
	// peers' pings into false-positive deaths. A peer that missed its last
	// pong is backed off (doubling rounds skipped, capped below the death
	// deadline) instead of hammered while it restarts.
	k.mu.Lock()
	if k.pinging == nil {
		k.pinging = make(map[string]bool)
	}
	if k.pingSkip == nil {
		k.pingSkip = make(map[string]int)
		k.pingBackoff = make(map[string]int)
	}
	peers := make([]string, 0, len(names))
	for peer := range names {
		if peer == k.name || k.deadPeers[peer] || k.pinging[peer] {
			continue
		}
		if now.Sub(k.lastSeen[peer]) <= interval {
			// Answering within a round: probe normally again.
			delete(k.pingSkip, peer)
			delete(k.pingBackoff, peer)
		} else if k.pingSkip[peer] > 0 {
			k.pingSkip[peer]--
			continue
		} else {
			k.pingBackoff[peer] = nextPingBackoff(k.pingBackoff[peer], misses)
			k.pingSkip[peer] = k.pingBackoff[peer]
		}
		k.pinging[peer] = true
		peers = append(peers, peer)
	}
	k.mu.Unlock()
	for _, peer := range peers {
		// Per-peer jitter staggers the probes inside the round, so a fleet
		// of kernels does not synchronize its pings into periodic bursts.
		go func(peer string, delay time.Duration) {
			time.Sleep(delay)
			_ = sendControl(k.node, peer, ctlPing, nil)
			k.mu.Lock()
			delete(k.pinging, peer)
			k.mu.Unlock()
		}(peer, heartbeatJitter(interval))
	}
}

// nextPingBackoff doubles the rounds skipped between probes of a silent
// peer, capped so the peer is still probed before the misses*interval
// death deadline can expire without a single probe in between.
func nextPingBackoff(prev, misses int) int {
	next := prev * 2
	if next == 0 {
		next = 1
	}
	max := misses - 1
	if max < 1 {
		max = 1
	}
	if next > max {
		next = max
	}
	return next
}

// heartbeatJitter draws a per-peer probe delay in [0, interval/4).
func heartbeatJitter(interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(interval / 4)))
}

// peerDied marks a peer dead once, fires the failover handler and
// broadcasts the death notice.
func (k *Kernel) peerDied(peer string) {
	k.mu.Lock()
	if k.deadPeers == nil {
		k.deadPeers = make(map[string]bool)
	}
	if k.deadPeers[peer] || peer == k.name {
		k.mu.Unlock()
		return
	}
	k.deadPeers[peer] = true
	fn := k.onFailover
	alive := make([]string, 0, len(k.lastSeen))
	for p := range k.lastSeen {
		if p != peer && !k.deadPeers[p] {
			alive = append(alive, p)
		}
	}
	k.mu.Unlock()
	if fn != nil {
		go fn(peer)
	}
	notice := appendStrings(nil, peer)
	for _, p := range alive {
		_ = sendControl(k.node, p, ctlDeath, notice)
	}
}

type pendingMsg struct {
	src            string
	frame, payload []byte // payload lies in the kernel frame
}

// maxPending bounds the per-application queue of messages received before
// the instance is up.
const maxPending = 65536

// Start launches a kernel listening on listenAddr and registers it with
// the name server at nsAddr.
func Start(name, listenAddr, nsAddr string) (*Kernel, error) {
	k, err := listen(name, listenAddr, nsAddr)
	if err != nil {
		return nil, err
	}
	if err := RegisterName(nsAddr, name, k.node.Addr()); err != nil {
		_ = k.node.Close()
		return nil, err
	}
	return k, nil
}

// listen starts a kernel's TCP endpoint without registering it: peers
// resolve through the name server at nsAddr.
func listen(name, listenAddr, nsAddr string) (*Kernel, error) {
	k := &Kernel{
		name:      name,
		nsAddr:    nsAddr,
		ports:     make(map[string]*appPort),
		factories: make(map[string]func(*Kernel) error),
		launched:  make(map[string]bool),
		pending:   make(map[string][]pendingMsg),
		resolved:  make(map[string]string),
	}
	node, err := tcptransport.Listen(name, listenAddr, k.resolve)
	if err != nil {
		return nil, err
	}
	k.node = node
	node.SetHandler(k.demux)
	return k, nil
}

// Name returns the kernel's cluster-unique name.
func (k *Kernel) Name() string { return k.name }

// Addr returns the kernel's TCP address.
func (k *Kernel) Addr() string { return k.node.Addr() }

// TransportStats returns the counters of the kernel's TCP node, which every
// application on the kernel and its control plane share: frames over writes
// is how many frames an average socket write carried.
func (k *Kernel) TransportStats() tcptransport.Stats { return k.node.Stats() }

// Close unregisters and stops the kernel.
func (k *Kernel) Close() error {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil
	}
	k.closed = true
	if k.hbStop != nil {
		close(k.hbStop)
		k.hbStop = nil
	}
	k.mu.Unlock()
	_ = UnregisterName(k.nsAddr, k.name)
	return k.node.Close()
}

// resolve looks a peer kernel up through the name server, caching results
// (connections themselves are opened lazily by the TCP transport, matching
// the paper's delayed connection establishment).
func (k *Kernel) resolve(name string) (string, error) {
	k.mu.Lock()
	if addr, ok := k.resolved[name]; ok {
		k.mu.Unlock()
		return addr, nil
	}
	k.mu.Unlock()
	addr, err := LookupName(k.nsAddr, name)
	if err != nil {
		return "", err
	}
	k.mu.Lock()
	k.resolved[name] = addr
	k.mu.Unlock()
	return addr, nil
}

// RegisterApp installs a lazy-launch factory: the first message addressed
// to appName triggers factory(k), which must attach the application to this
// kernel (typically core.App.AttachTransport(k.Transport(appName))).
func (k *Kernel) RegisterApp(appName string, factory func(*Kernel) error) {
	k.mu.Lock()
	k.factories[appName] = factory
	k.mu.Unlock()
}

// Launched reports whether an application instance is active on this kernel.
func (k *Kernel) Launched(appName string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.launched[appName] {
		return true
	}
	p, ok := k.ports[appName]
	return ok && p.hasHandler()
}

// Transport returns the application's attachment point on this kernel.
func (k *Kernel) Transport(appName string) transport.Transport {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p, ok := k.ports[appName]; ok {
		return p
	}
	p := &appPort{kernel: k, app: appName}
	k.ports[appName] = p
	return p
}

// demux routes an incoming kernel frame ("appName" length-prefixed, then
// payload) to the right application, lazily launching it if needed. The
// name is looked up as bytes: only a message queued for an application not
// yet up makes it a string.
func (k *Kernel) demux(src string, frame []byte) {
	name, rest, err := splitAppFrame(frame)
	if err != nil {
		return // malformed frame: drop (a real kernel would log)
	}
	if string(name) == controlApp {
		k.handleControl(src, rest) // copies out what it keeps
		k.recycle(frame)
		return
	}

	k.mu.Lock()
	p, ok := k.ports[string(name)]
	if ok && p.hasHandler() {
		k.mu.Unlock()
		p.deliver(src, frame, rest)
		return
	}
	appName := string(name)
	factory := k.factories[appName]
	alreadyLaunched := k.launched[appName]
	if factory != nil && !alreadyLaunched {
		k.launched[appName] = true
	}
	if len(k.pending[appName]) < maxPending {
		k.pending[appName] = append(k.pending[appName], pendingMsg{src: src, frame: frame, payload: rest})
	}
	k.mu.Unlock()

	if factory != nil && !alreadyLaunched {
		if err := factory(k); err != nil {
			k.mu.Lock()
			delete(k.pending, appName)
			k.mu.Unlock()
			return
		}
		// The factory attached the app; its SetHandler flushed the queue.
	}
}

// flushPending delivers queued messages once an app handler is installed.
func (k *Kernel) flushPending(appName string, p *appPort) {
	for {
		k.mu.Lock()
		queue := k.pending[appName]
		delete(k.pending, appName)
		k.mu.Unlock()
		if len(queue) == 0 {
			return
		}
		for _, m := range queue {
			p.deliver(m.src, m.frame, m.payload)
		}
	}
}

// recycle returns a received kernel frame whose bytes have all been copied
// out to the pool it was borrowed from, if an application installed one.
func (k *Kernel) recycle(frame []byte) {
	if r := k.release.Load(); r != nil {
		(*r)(frame)
	}
}

// appPort is one application's transport endpoint multiplexed on a kernel.
type appPort struct {
	kernel *Kernel
	app    string

	mu      sync.Mutex
	handler transport.Handler
	release func(payload []byte)
	borrow  func(n int) []byte
}

// Local implements transport.Transport: the node name is the kernel name.
func (p *appPort) Local() string { return p.kernel.name }

// SetHandler implements transport.Transport and releases queued messages.
func (p *appPort) SetHandler(h transport.Handler) {
	p.mu.Lock()
	p.handler = h
	p.mu.Unlock()
	p.kernel.flushPending(p.app, p)
}

func (p *appPort) hasHandler() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.handler != nil
}

// deliver hands the application's payload, which lies in the kernel frame
// frame, to its handler. An application that lends (transport.Borrower)
// gets a copy in a buffer from its own lender, and the frame goes back to
// the pool: the payload itself starts behind the name prefix, so given back
// it would be filed one class too low. Otherwise the frame is the handler's.
func (p *appPort) deliver(src string, frame, payload []byte) {
	p.mu.Lock()
	h, borrow := p.handler, p.borrow
	p.mu.Unlock()
	if h == nil {
		return
	}
	if borrow != nil {
		payload = append(borrow(len(payload)), payload...)
		p.kernel.recycle(frame)
	}
	h(src, payload)
}

// Send implements transport.Transport, framing the payload with the
// application name so the destination kernel can demultiplex (and launch).
func (p *appPort) Send(dst string, payload []byte) error {
	return p.send(dst, payload, false)
}

// SendCorked implements transport.Corker: the application's frame is corked
// in the kernel node's outbox, so a drainer's burst leaves the kernel in one
// write per destination, as on a bare tcptransport node.
func (p *appPort) SendCorked(dst string, payload []byte) error {
	return p.send(dst, payload, true)
}

// Uncork implements transport.Corker. The kernel node's corks are shared by
// every application on it; letting another one's go early is harmless.
func (p *appPort) Uncork() { p.kernel.node.Uncork() }

func (p *appPort) send(dst string, payload []byte, cork bool) error {
	p.mu.Lock()
	borrow := p.borrow
	p.mu.Unlock()
	frame := makeAppFrame(borrow, p.app, payload)
	var err error
	if cork {
		err = p.kernel.node.SendCorked(dst, frame)
	} else {
		err = p.kernel.node.Send(dst, frame)
	}
	if err != nil {
		return err // refused: the payload stays the caller's
	}
	p.mu.Lock()
	release := p.release
	p.mu.Unlock()
	if release != nil {
		release(payload)
	}
	return nil
}

// SetRelease implements transport.Releaser: the frame on the kernel's wire
// is a copy (makeAppFrame), so an accepted payload has no reader left by the
// time Send returns. The kernel node releases its own frames, sent and
// received, through the same function.
func (p *appPort) SetRelease(release func(payload []byte)) {
	p.mu.Lock()
	p.release = release
	p.mu.Unlock()
	p.kernel.node.SetRelease(release)
	p.kernel.release.Store(&release)
}

// SetBorrow implements transport.Borrower: the kernel node reads its frames
// into buffers from borrow, and each of this application's payloads is
// copied out of its frame into one more (deliver).
func (p *appPort) SetBorrow(borrow func(n int) []byte) {
	p.mu.Lock()
	p.borrow = borrow
	p.mu.Unlock()
	p.kernel.node.SetBorrow(borrow)
}

// Close implements transport.Transport (the kernel endpoint stays up).
func (p *appPort) Close() error { return nil }

var (
	_ transport.Transport = (*appPort)(nil)
	_ transport.Releaser  = (*appPort)(nil)
	_ transport.Borrower  = (*appPort)(nil)
	_ transport.Corker    = (*appPort)(nil)
)

// makeAppFrame frames an application payload for the kernel's wire: the
// application's name, length-prefixed, then the payload. The frame comes
// from borrow when the application lends, and the kernel node gives it back
// through the application's Releaser once written; with a nil borrow it is
// allocated.
func makeAppFrame(borrow func(n int) []byte, app string, payload []byte) []byte {
	n := (bits.Len64(uint64(len(app))|1)+6)/7 + len(app) + len(payload)
	var b []byte
	if borrow != nil {
		b = borrow(n)
	} else {
		b = make([]byte, 0, n)
	}
	b = binary.AppendUvarint(b, uint64(len(app)))
	b = append(b, app...)
	return append(b, payload...)
}

// splitAppFrame returns the application name of a kernel frame and the
// payload behind it, both slices of b.
func splitAppFrame(b []byte) (name, payload []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, fmt.Errorf("kernel: malformed app frame")
	}
	return b[n : n+int(l)], b[n+int(l):], nil
}
