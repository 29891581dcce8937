package integration

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/dps"
	"repro/internal/transport/tcptransport"
)

type tcpPing struct{ From string }
type tcpPong struct{ At string }

var (
	_ = dps.Register[tcpPing]()
	_ = dps.Register[tcpPong]()
)

// TestAppCloseOverTCPNodesReturns: App.Close closes its transports one
// after the other. With real sockets that only works if a node's Close
// ends every connection it reads — including the second socket of a pair
// that dialed each other at once, which neither side registered as its send
// path — instead of waiting for the peer, which is still open, to close it.
func TestAppCloseOverTCPNodesReturns(t *testing.T) {
	names := []string{"n0", "n1", "n2"}
	var (
		mu     sync.Mutex
		table  = map[string]string{}
		both   sync.WaitGroup // n0's and n1's first lookups of each other
		cross  = make(chan struct{})
		first0 sync.Once
		first1 sync.Once
	)
	both.Add(2)
	go func() { both.Wait(); close(cross) }()
	resolverOf := func(self string) tcptransport.Resolver {
		return func(name string) (string, error) {
			var once *sync.Once
			switch {
			case self == "n0" && name == "n1":
				once = &first0
			case self == "n1" && name == "n0":
				once = &first1
			}
			if once != nil {
				once.Do(func() {
					both.Done()
					select {
					case <-cross: // both dials are now in flight
					case <-time.After(5 * time.Second):
					}
				})
			}
			mu.Lock()
			defer mu.Unlock()
			return table[name], nil
		}
	}

	var app *dps.App
	nodes := make([]*tcptransport.Node, len(names))
	for i, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolverOf(name))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		mu.Lock()
		table[name] = n.Addr()
		mu.Unlock()
		if app == nil {
			app, err = dps.Connect(n)
		} else {
			err = app.Attach(n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// One ping graph per target node, callable from any origin.
	ping := map[string]dps.Graph[*tcpPing, *tcpPong]{}
	for _, target := range names {
		col, err := dps.NewCollection[struct{}](app, "at-"+target)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.MapNodes(target); err != nil {
			t.Fatal(err)
		}
		g, err := dps.Build(app, "ping-"+target, dps.Chain(dps.Leaf("ping-"+target, col, dps.MainRoute(),
			func(c *dps.Ctx, in *tcpPing) *tcpPong { return &tcpPong{At: c.Node()} })))
		if err != nil {
			t.Fatal(err)
		}
		ping[target] = g
	}
	call := func(origin, target string) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := ping[target].CallFrom(ctx, origin, &tcpPing{From: origin})
		if err != nil {
			t.Errorf("%s > %s: %v", origin, target, err)
		} else if out.At != target {
			t.Errorf("%s > %s answered by %s", origin, target, out.At)
		}
	}
	// n0 and n1 open towards each other at the same moment; every other
	// directed pair follows.
	var wg sync.WaitGroup
	for _, pair := range [][2]string{{"n0", "n1"}, {"n1", "n0"}} {
		wg.Add(1)
		go func(origin, target string) {
			defer wg.Done()
			call(origin, target)
		}(pair[0], pair[1])
	}
	wg.Wait()
	for _, origin := range names {
		for _, target := range names {
			if origin != target {
				call(origin, target)
			}
		}
	}
	var dials int64
	for _, n := range nodes {
		dials += n.Stats().Dials
	}
	if dials < 4 {
		t.Fatalf("%d dials: three pairs and no double connection to close", dials)
	}

	closed := make(chan struct{})
	go func() { app.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("App.Close hangs closing tcptransport nodes one by one")
	}
}
