package transport

import (
	"sync"

	"repro/internal/simnet"
)

// SimNode adapts a simnet.Node to the Transport interface. Messages pay the
// modelled NIC and latency costs of the virtual cluster.
type SimNode struct {
	node *simnet.Node

	mu      sync.Mutex
	handler Handler
	started bool
	wg      sync.WaitGroup
	once    sync.Once
}

// NewSimNode wraps an existing simnet node.
func NewSimNode(node *simnet.Node) *SimNode {
	return &SimNode{node: node}
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
			h := s.handler
			s.mu.Unlock()
			if h != nil {
				h(m.From, m.Payload)
			}
		case <-s.node.Done():
			return
		}
	}
}

// Send implements Transport.
func (s *SimNode) Send(dst string, payload []byte) error {
	return s.node.Send(dst, payload)
}

// Close implements Transport. The underlying simnet node is owned by the
// Network and closed with it; Close here only stops accepting new work.
func (s *SimNode) Close() error { return nil }

var _ Transport = (*SimNode)(nil)
