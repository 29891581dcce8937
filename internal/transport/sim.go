package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// SimRetryBudget is how long a SimNode retries a transient send fault (an
// injected error or a partition) before its Send returns the error.
const SimRetryBudget = 250 * time.Millisecond

// SimNode adapts a simnet.Node to the Transport interface. Messages pay the
// modelled NIC and latency costs of the virtual cluster.
type SimNode struct {
	node    *simnet.Node
	retries atomic.Int64
	done    chan struct{} // closed by Close: ends retries
	once    sync.Once

	mu      sync.Mutex
	handler Handler
	release func(payload []byte)
	started bool
	wg      sync.WaitGroup
}

// NewSimNode wraps an existing simnet node.
func NewSimNode(node *simnet.Node) *SimNode {
	return &SimNode{node: node, done: make(chan struct{})}
}

// SimNodes adds one node per name to net and wraps each, in order.
func SimNodes(net *simnet.Network, names ...string) ([]Transport, error) {
	trs := make([]Transport, 0, len(names))
	for _, name := range names {
		nd, err := net.AddNode(name)
		if err != nil {
			return nil, err
		}
		trs = append(trs, NewSimNode(nd))
	}
	return trs, nil
}

// Local implements Transport.
func (s *SimNode) Local() string { return s.node.Name() }

// SetHandler implements Transport. The first call starts the receive pump.
func (s *SimNode) SetHandler(h Handler) {
	s.mu.Lock()
	s.handler = h
	if !s.started {
		s.started = true
		s.wg.Add(1)
		go s.pump()
	}
	s.mu.Unlock()
}

func (s *SimNode) pump() {
	defer s.wg.Done()
	for {
		select {
		case m := <-s.node.Inbox():
			s.mu.Lock()
			h, release := s.handler, s.release
			s.mu.Unlock()
			if h != nil {
				h(m.From, m.Payload)
			}
			if release != nil {
				release(m.Payload)
			}
		case <-s.node.Done():
			return
		}
	}
}

// SetRelease implements Releaser: every payload delivered to this node is
// released through release once its handler has returned.
func (s *SimNode) SetRelease(release func(payload []byte)) {
	s.mu.Lock()
	s.release = release
	s.mu.Unlock()
}

// Send implements Transport. A transient fault (simnet.ErrInjected,
// simnet.ErrPartitioned) is retried, paced by a Backoff, for up to
// SimRetryBudget; an unknown or crashed destination and a closed sender fail
// at once.
func (s *SimNode) Send(dst string, payload []byte) error {
	err := s.node.Send(dst, payload)
	var bo Backoff
	for err != nil && (errors.Is(err, simnet.ErrInjected) || errors.Is(err, simnet.ErrPartitioned)) {
		d, within := bo.Next(SimRetryBudget)
		if !within || !Pause(d, s.done) {
			return err
		}
		s.retries.Add(1)
		err = s.node.Send(dst, payload)
	}
	return err
}

// SimRetries sums, over the SimNodes among trs, the send attempts repeated
// after a transient fault.
func SimRetries(trs []Transport) int64 {
	var n int64
	for _, tr := range trs {
		if s, ok := tr.(*SimNode); ok {
			n += s.retries.Load()
		}
	}
	return n
}

// Close implements Transport. It ends a retry in progress at its pause, and
// a later Send makes one attempt. The underlying simnet node is owned by the
// Network and closed with it.
func (s *SimNode) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

var (
	_ Transport = (*SimNode)(nil)
	_ Releaser  = (*SimNode)(nil)
)
