package perf

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/dps"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// nodeNames are the three cluster nodes of every workload; n0 is the master.
var nodeNames = [3]string{"n0", "n1", "n2"}

// Ping and Pong are the tokens of the pre-dial graph.
type Ping struct{ From string }
type Pong struct{ At string }

var (
	_ = dps.Register[Ping]()
	_ = dps.Register[Pong]()
)

// callDeadline bounds every call the benchmark makes; a call that passes it
// is a failed op. It is far above any healthy latency (call_fan's p99 is a few
// milliseconds), so it fires only when the engine lost a message.
const callDeadline = 2 * time.Second

// cluster is three tcptransport nodes on loopback attached to one dps.App.
type cluster struct {
	app   *dps.App
	nodes []*tcptransport.Node
	// timed holds the decorators of a traced cluster, nil otherwise.
	timed []*timedTransport
}

// newCluster listens on three ephemeral loopback ports, attaches them to a
// fresh application and pre-dials every directed node pair. With a tracer,
// each node is wrapped in a timedTransport before the engine sees it.
func newCluster(opts []dps.Option, t *tracer, frameTransit bool) (*cluster, error) {
	c := &cluster{}
	table := make(map[string]string)
	resolver := tcptransport.StaticResolver(table)
	for _, name := range nodeNames {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen %s: %w", name, err)
		}
		table[name] = n.Addr()
		c.nodes = append(c.nodes, n)
		var tr transport.Transport = n
		if t != nil {
			d := &timedTransport{inner: n, t: t, frameTransit: frameTransit}
			c.timed = append(c.timed, d)
			tr = d
		}
		var err2 error
		if c.app == nil {
			c.app, err2 = dps.Connect(tr, opts...)
		} else {
			err2 = c.app.Attach(tr)
		}
		if err2 != nil {
			c.close()
			return nil, fmt.Errorf("attach %s: %w", name, err2)
		}
	}
	if err := c.predial(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// predial opens the socket of every directed node pair, one at a time, with a
// one-leaf ping graph called from each origin. In this tree a first send that
// races the peer dialling back can lose a message for good, and two nodes
// that dialled each other deadlock App.Close; dialling sequentially before
// any workload traffic leaves one socket per pair and neither hazard.
func (c *cluster) predial() error {
	for _, target := range nodeNames {
		col, err := dps.NewCollection[struct{}](c.app, "ping-"+target)
		if err != nil {
			return err
		}
		if err := col.MapNodes(target); err != nil {
			return err
		}
		g, err := dps.Build(c.app, "ping-"+target, dps.Chain(dps.Leaf("ping-"+target, col, dps.MainRoute(),
			func(ctx *dps.Ctx, in *Ping) *Pong { return &Pong{At: ctx.Node()} })))
		if err != nil {
			return err
		}
		for _, origin := range nodeNames {
			if origin == target {
				continue
			}
			var lastErr error
			for attempt := 0; attempt < 3; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
				out, err := g.CallFrom(ctx, origin, &Ping{From: origin})
				cancel()
				if err == nil && out.At != target {
					err = fmt.Errorf("answered by %s", out.At)
				}
				if lastErr = err; err == nil {
					break
				}
			}
			if lastErr != nil {
				return fmt.Errorf("pre-dial %s>%s: %w", origin, target, lastErr)
			}
		}
	}
	return nil
}

// closeTogether closes tcptransport nodes concurrently: a Node.Close waits for
// inbound connections that only the peer's Close ends, so closing them one by
// one deadlocks once two nodes hold connections to each other.
func closeTogether(nodes ...*tcptransport.Node) {
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *tcptransport.Node) {
			defer wg.Done()
			_ = n.Close() // the listener's close error changes nothing here
		}(n)
	}
	wg.Wait()
}

// close shuts the nodes down together and then the application (App.Close
// alone would close the transports one by one).
func (c *cluster) close() {
	closeTogether(c.nodes...)
	if c.app != nil {
		c.app.Close()
	}
}

// transportTotals sums the decorators' counters.
func (c *cluster) transportTotals() (frames, bytes, errs int64) {
	for _, d := range c.timed {
		frames += d.frames.Load()
		bytes += d.bytes.Load()
		errs += d.errs.Load()
	}
	return
}
