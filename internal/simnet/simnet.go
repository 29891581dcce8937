// Package simnet models the paper's experimental testbed: a cluster of PCs
// interconnected by a switched network (the authors used 8 bi-Pentium III
// nodes on Gigabit Ethernet). Since that hardware is unavailable, simnet
// provides the closest synthetic equivalent: virtual nodes whose outgoing
// messages pay a NIC cost (size/bandwidth + per-message overhead) on a
// serialized egress queue, plus a propagation latency before delivery.
//
// The model is intentionally simple but captures the properties the paper's
// experiments depend on:
//
//   - transfers take wall-clock time proportional to their size, so
//     computation running concurrently genuinely overlaps communication;
//   - a node's NIC is a serialized resource, so many concurrent sends
//     contend (which makes fine-grained splits communication-bound);
//   - a switched fabric: distinct node pairs transfer concurrently.
//
// Delivery between nodes preserves per-sender FIFO order, like TCP
// connections in the original runtime.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the modelled interconnect.
type Config struct {
	// Bandwidth is the egress NIC bandwidth in bytes/second.
	// Zero means infinite (no size-proportional cost).
	Bandwidth float64
	// Latency is the propagation delay between send completion and delivery.
	Latency time.Duration
	// PerMessage is a fixed cost charged on the sender's egress queue for
	// every message (protocol and interrupt overhead).
	PerMessage time.Duration
	// TimeScale multiplies all modelled delays. 1.0 simulates in real time;
	// 0.1 runs experiments 10x faster while preserving comm/comp ratios if
	// computation is scaled equally. Zero defaults to 1.0.
	TimeScale float64
}

// GigabitEthernet mirrors the paper's testbed fabric: Gigabit Ethernet
// through a switch, on which the authors measured roughly 35 MB/s of
// application-level throughput for large messages (Figure 6). We model the
// NIC at a higher raw rate and charge per-message overhead separately.
func GigabitEthernet() Config {
	return Config{
		Bandwidth:  100e6, // 100 MB/s raw link rate
		Latency:    50 * time.Microsecond,
		PerMessage: 30 * time.Microsecond,
		TimeScale:  1.0,
	}
}

// FastEthernet models the slower commodity fabric mentioned in the paper's
// introduction (useful to widen the comm/comp ratio sweep).
func FastEthernet() Config {
	return Config{
		Bandwidth:  11e6,
		Latency:    100 * time.Microsecond,
		PerMessage: 50 * time.Microsecond,
		TimeScale:  1.0,
	}
}

// Message is a payload in flight between two virtual nodes.
type Message struct {
	From    string
	To      string
	Payload []byte
}

// NodeStats accumulates per-node traffic counters.
type NodeStats struct {
	MsgsSent      atomic.Int64
	BytesSent     atomic.Int64
	MsgsReceived  atomic.Int64
	BytesReceived atomic.Int64
}

// Network is a virtual cluster fabric.
type Network struct {
	cfg Config

	mu     sync.RWMutex
	nodes  map[string]*Node
	parts  map[partKey]bool
	closed bool

	// Fault injection (faults.go): seeded delivery jitter and transient
	// per-send errors, both directional. faultMu is separate from mu so the
	// hot send path only ever takes it when faults are configured.
	faultMu  sync.Mutex
	rng      *rand.Rand
	jitter   map[dirKey]time.Duration
	failNext map[dirKey]int
	faultsOn atomic.Bool
	injected atomic.Int64
}

// partKey is an unordered node pair with a partition between them.
type partKey struct{ a, b string }

func makePartKey(a, b string) partKey {
	if a > b {
		a, b = b, a
	}
	return partKey{a: a, b: b}
}

// Node is one virtual cluster machine attached to a Network.
type Node struct {
	name string
	net  *Network

	egress  chan outMsg
	inbox   chan Message
	done    chan struct{}
	stats   NodeStats
	closing atomic.Bool
	crashed atomic.Bool
	wg      sync.WaitGroup
}

type outMsg struct {
	to       string
	payload  []byte
	enqueued time.Time
}

// New creates a network with the given interconnect model.
func New(cfg Config) *Network {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	return &Network{cfg: cfg, nodes: make(map[string]*Node)}
}

// Config returns the interconnect model.
func (n *Network) Config() Config { return n.cfg }

// AddNode attaches a new virtual node. Node names must be unique.
func (n *Network) AddNode(name string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("simnet: network closed")
	}
	if _, ok := n.nodes[name]; ok {
		return nil, fmt.Errorf("simnet: duplicate node %q", name)
	}
	nd := &Node{
		name:   name,
		net:    n,
		egress: make(chan outMsg, 1024),
		inbox:  make(chan Message, 1024),
		done:   make(chan struct{}),
	}
	n.nodes[name] = nd
	nd.wg.Add(1)
	go nd.egressLoop()
	return nd, nil
}

// Node returns a previously added node.
func (n *Network) Node(name string) (*Node, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[name]
	return nd, ok
}

// Nodes lists the attached node names.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	return out
}

// RemoveNode detaches a node abruptly: pending and future messages to and
// from it are dropped, and subsequent Sends addressed to it fail. This is
// the failure-injection hook for testing the runtime's behaviour when a
// cluster machine disappears (the paper's future-work discussion of
// graceful degradation on node failures).
func (n *Network) RemoveNode(name string) bool {
	n.mu.Lock()
	nd, ok := n.nodes[name]
	if ok {
		delete(n.nodes, name)
	}
	n.mu.Unlock()
	if !ok {
		return false
	}
	nd.close()
	return true
}

// Crash kills a node the way a power failure would: messages still queued
// on its NIC are discarded (a message that already paid its transmit cost
// is on the wire and still arrives, so per-channel FIFO delivery loses a
// suffix, never a middle), inbound delivery stops, and subsequent Sends
// addressed to the node fail. The difference from RemoveNode — which
// drains the egress queue gracefully — is the point: Crash is the fault
// injector for the engine's failure-recovery protocol.
func (n *Network) Crash(name string) bool {
	n.mu.Lock()
	nd, ok := n.nodes[name]
	if ok {
		delete(n.nodes, name)
	}
	n.mu.Unlock()
	if !ok {
		return false
	}
	nd.crashed.Store(true)
	nd.close()
	return true
}

// Partition cuts the link between two nodes, in both directions: Sends
// between them fail and in-flight messages are dropped. Heal restores the
// link. Partitions model the asymmetric failures a crash cannot: both
// sides stay alive but cannot reach each other.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	if n.parts == nil {
		n.parts = make(map[partKey]bool)
	}
	n.parts[makePartKey(a, b)] = true
	n.mu.Unlock()
}

// Heal removes the partition between two nodes.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	delete(n.parts, makePartKey(a, b))
	n.mu.Unlock()
}

// Partitioned reports whether the link between two nodes is cut.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.parts[makePartKey(a, b)]
}

// Close shuts down all nodes and waits for in-flight deliveries to settle.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.close()
	}
}

// Name returns the node's cluster-unique name.
func (nd *Node) Name() string { return nd.name }

// Stats exposes the node's traffic counters.
func (nd *Node) Stats() *NodeStats { return &nd.stats }

// Inbox returns the channel on which delivered messages arrive. The
// channel is never closed (closing could race with in-flight deliveries);
// consumers that must observe shutdown should select on Done.
func (nd *Node) Inbox() <-chan Message { return nd.inbox }

// Done is closed when the node shuts down.
func (nd *Node) Done() <-chan struct{} { return nd.done }

// Send queues payload for transmission to the named destination node. The
// call returns once the message is accepted by the local egress queue; the
// modelled NIC cost and latency are paid asynchronously before delivery.
// Payload ownership transfers to the network.
func (nd *Node) Send(to string, payload []byte) error {
	if nd.closing.Load() {
		return fmt.Errorf("simnet: node %q closed", nd.name)
	}
	nd.net.mu.RLock()
	_, ok := nd.net.nodes[to]
	parted := nd.net.parts[makePartKey(nd.name, to)]
	nd.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("simnet: unknown destination %q", to)
	}
	if parted {
		return fmt.Errorf("simnet: send %s -> %s: %w", nd.name, to, ErrPartitioned)
	}
	if err := nd.net.injectSendFault(nd.name, to); err != nil {
		return err
	}
	select {
	case nd.egress <- outMsg{to: to, payload: payload, enqueued: time.Now()}:
		return nil
	case <-nd.done:
		return fmt.Errorf("simnet: node %q closed", nd.name)
	}
}

func (nd *Node) nicCost(size int) time.Duration {
	cfg := nd.net.cfg
	var d time.Duration
	if cfg.Bandwidth > 0 {
		d = time.Duration(float64(size) / cfg.Bandwidth * float64(time.Second))
	}
	d += cfg.PerMessage
	return time.Duration(float64(d) * cfg.TimeScale)
}

func (nd *Node) latency() time.Duration {
	return time.Duration(float64(nd.net.cfg.Latency) * nd.net.cfg.TimeScale)
}

// egressLoop serializes the NIC: messages pay their occupancy cost one after
// another, then are handed to an asynchronous delivery goroutine that adds
// propagation latency. Per-destination order is preserved by chaining
// deliveries through a per-destination gate.
//
// The NIC is modelled with absolute deadlines (nicFree advances by the
// occupancy cost of each message) so that OS timer overshoot on one sleep
// does not accumulate across a long message train: each sleep targets the
// modelled finish time, and a late wake-up is absorbed by the next
// message's deadline.
func (nd *Node) egressLoop() {
	defer nd.wg.Done()
	// gates[dst] is closed when the previous message to dst has been
	// delivered, keeping per-sender-per-destination FIFO despite async
	// latency goroutines.
	gates := make(map[string]chan struct{})
	var nicFree time.Time
	for {
		select {
		case m := <-nd.egress:
			nicFree = nd.transmit(m, gates, nicFree)
		case <-nd.done:
			if nd.crashed.Load() {
				// Power failure: whatever is still queued on the NIC is lost.
				return
			}
			// Graceful detach: drain whatever was already queued, then exit.
			for {
				select {
				case m := <-nd.egress:
					nicFree = nd.transmit(m, gates, nicFree)
				default:
					return
				}
			}
		}
	}
}

func (nd *Node) transmit(m outMsg, gates map[string]chan struct{}, nicFree time.Time) time.Time {
	// The transmission cannot start before the message was handed to the
	// NIC nor before the NIC finished the previous message; crucially the
	// lower bound is the enqueue time, not "now", so a late timer wake-up
	// does not re-anchor the model to real time and accumulate.
	start := nicFree
	if m.enqueued.After(start) {
		start = m.enqueued
	}
	done := start.Add(nd.nicCost(len(m.payload)))
	sleepUntil(done)
	nd.stats.MsgsSent.Add(1)
	nd.stats.BytesSent.Add(int64(len(m.payload)))

	prev := gates[m.to]
	gate := make(chan struct{})
	gates[m.to] = gate
	// Injected jitter rides the delivery deadline; the per-destination gate
	// chain still serializes actual deliveries, so FIFO survives a later
	// message drawing a smaller jitter than an earlier one.
	deliverAt := done.Add(nd.latency() + nd.net.jitterFor(nd.name, m.to))
	nd.wg.Add(1)
	go func() {
		defer nd.wg.Done()
		defer close(gate)
		sleepUntil(deliverAt)
		if prev != nil {
			<-prev
		}
		// The per-destination gate chain serializes these checks with the
		// delivery order, so a crash drops a suffix of each channel's
		// stream, never a message in the middle. Partitions stall inside
		// deliver instead of dropping, for the same reason.
		if nd.crashed.Load() {
			return
		}
		nd.net.deliver(Message{From: nd.name, To: m.to, Payload: m.payload})
	}()
	return done
}

// sleepUntil sleeps until the modelled absolute time t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (n *Network) deliver(m Message) {
	var dst *Node
	for {
		n.mu.RLock()
		d, ok := n.nodes[m.To]
		src, srcOk := n.nodes[m.From]
		parted := n.parts[makePartKey(m.From, m.To)]
		n.mu.RUnlock()
		if !ok {
			return
		}
		if !parted {
			dst = d
			break
		}
		// A partition stalls in-flight traffic the way a real cut stalls
		// TCP: the segment is retransmitted until the route heals, or the
		// connection dies with its endpoint. Delivering after the heal —
		// never dropping — keeps each channel's loss a pure suffix (the
		// contract the fault-tolerance layer's prefix filters rely on);
		// a partition that outlives the failure detector's patience ends
		// in a crash or removal, which releases the stall by discarding.
		if !srcOk || src.crashed.Load() || src.closing.Load() {
			return
		}
		sleep(200 * time.Microsecond)
	}
	if dst.closing.Load() {
		return
	}
	dst.stats.MsgsReceived.Add(1)
	dst.stats.BytesReceived.Add(int64(len(m.Payload)))
	select {
	case dst.inbox <- m:
	case <-dst.done:
	}
}

func (nd *Node) close() {
	if nd.closing.Swap(true) {
		return
	}
	close(nd.done)
	nd.wg.Wait()
	// nd.inbox is deliberately left open: a delivery goroutine of another
	// node may be completing a send, and closing would race with it.
	// Receivers observe shutdown through nd.done.
}

// sleep centralizes modelled waiting so very small durations (below the OS
// timer resolution) are still charged: they accumulate via busy-spin-free
// coarse rounding inside time.Sleep, which is adequate at the scales used by
// the experiment harness (≥ microseconds).
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}
