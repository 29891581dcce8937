// Package ringbench reproduces the paper's Figure 6 experiment: 100 MB of
// data forwarded around a ring of 4 nodes, each node re-sending a block as
// soon as it receives it, comparing
//
//   - DPS data objects (full envelope + serialization through the runtime)
//     against
//   - raw transfers posted directly on the simulated network,
//
// as a function of the single-transfer block size. The DPS control
// structures induce a relative overhead that matters only for small data
// objects — the crossover shape this harness regenerates.
package ringbench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// BlockToken is the payload data object circulating around the DPS ring.
type BlockToken struct {
	Seq  int
	Data []byte
}

// RingOrder starts a DPS ring run.
type RingOrder struct {
	Blocks    int
	BlockSize int
}

// RingDone reports the number of forwarded blocks.
type RingDone struct {
	Blocks int
}

var (
	_ = serial.MustRegister[BlockToken]()
	_ = serial.MustRegister[RingOrder]()
	_ = serial.MustRegister[RingDone]()
)

// Result is one measured configuration.
type Result struct {
	BlockSize  int
	TotalBytes int64
	Elapsed    time.Duration
	Throughput float64 // MB/s of payload leaving the first node
	// Recovery is the detection-to-restored latency of a mid-run node
	// crash (RunDPSFailover); zero otherwise.
	Recovery time.Duration
	// Stats snapshots the application's engine counters at the end of the
	// run (tokens, bytes, stalls, queue depths).
	Stats *core.Stats
}

// RunDPS measures the DPS ring: a split on node 0 posts the blocks, leaf
// operations on nodes 1..n-1 forward them, and the merge back on node 0
// collects them. Pipelining keeps every hop busy, as in the paper's test
// where "individual machines forward the data as soon as they receive it".
func RunDPS(cfg simnet.Config, ringNodes, totalBytes, blockSize, window int) (Result, error) {
	return RunDPSConfig(cfg, ringNodes, totalBytes, blockSize, core.Config{Window: window})
}

// RunDPSConfig is RunDPS with full control over the engine configuration.
func RunDPSConfig(cfg simnet.Config, ringNodes, totalBytes, blockSize int, appCfg core.Config) (Result, error) {
	return RunDPSRebalance(cfg, ringNodes, totalBytes, blockSize, appCfg, RebalanceSpec{})
}

// RebalanceSpec asks the DPS ring run to live-migrate one forwarding hop
// mid-benchmark, exercising the placement layer's remap protocol under
// load. The zero value performs no migration.
type RebalanceSpec struct {
	// Hop is the forwarding hop to migrate (1..ringNodes-1); zero disables
	// the rebalance.
	Hop int
	// To is the destination node index within the ring.
	To int
	// After is when to trigger the migration, measured from the start of
	// the benchmark call.
	After time.Duration
	// Back migrates the hop back to its original node After later, so the
	// run ends on the initial placement.
	Back bool
}

// RunDPSRebalance measures the DPS ring, optionally live-remapping one hop
// mid-run per spec.
func RunDPSRebalance(cfg simnet.Config, ringNodes, totalBytes, blockSize int, appCfg core.Config, spec RebalanceSpec) (Result, error) {
	if ringNodes < 2 {
		return Result{}, fmt.Errorf("ringbench: need at least 2 nodes")
	}
	if spec.Hop != 0 && (spec.Hop < 1 || spec.Hop >= ringNodes || spec.To < 0 || spec.To >= ringNodes) {
		return Result{}, fmt.Errorf("ringbench: rebalance hop %d -> node %d out of range", spec.Hop, spec.To)
	}
	net := simnet.New(cfg)
	defer net.Close()
	app, g, trs, single, err := buildRing(net, appCfg, ringNodes)
	if err != nil {
		return Result{}, err
	}
	defer app.Close()

	blocks := totalBytes / blockSize
	if blocks == 0 {
		blocks = 1
	}

	var remapErr error
	remapDone := make(chan struct{})
	if spec.Hop != 0 {
		go func() {
			defer close(remapDone)
			time.Sleep(spec.After)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tc := single[spec.Hop]
			if err := tc.RemapThread(ctx, 0, trs[spec.To].Local()); err != nil {
				remapErr = err
				return
			}
			if spec.Back {
				time.Sleep(spec.After)
				remapErr = tc.RemapThread(ctx, 0, trs[spec.Hop].Local())
			}
		}()
	} else {
		close(remapDone)
	}

	sw := trace.StartStopwatch()
	out, err := g.Call(context.Background(), &RingOrder{Blocks: blocks, BlockSize: blockSize})
	if err != nil {
		// Join the remap goroutine before the deferred app/net teardown so
		// it cannot migrate against a closing application.
		<-remapDone
		return Result{}, err
	}
	elapsed := sw.Elapsed()
	<-remapDone
	if remapErr != nil {
		return Result{}, fmt.Errorf("ringbench: mid-run remap: %w", remapErr)
	}
	if got := out.(*RingDone).Blocks; got != blocks {
		return Result{}, fmt.Errorf("ringbench: %d of %d blocks arrived", got, blocks)
	}
	total := int64(blocks) * int64(blockSize)
	return Result{
		BlockSize:  blockSize,
		TotalBytes: total,
		Elapsed:    elapsed,
		Throughput: trace.ThroughputMBs(total, elapsed),
		Stats:      app.Stats(),
	}, nil
}

// buildRing constructs the Figure 6 ring application on an existing
// simulated network: a split on node 0 posting the blocks, forwarding
// leaves on nodes 1..n-1, and the collecting merge back on node 0. It
// returns the nodes' transports in ring order.
func buildRing(net *simnet.Network, appCfg core.Config, ringNodes int) (*core.App, *core.Flowgraph, []transport.Transport, []*core.ThreadCollection, error) {
	names := make([]string, ringNodes)
	for i := range names {
		names[i] = fmt.Sprintf("ring%d", i)
	}
	trs, err := transport.SimNodes(net, names...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	app, err := core.NewAppOn(appCfg, trs...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	single := make([]*core.ThreadCollection, ringNodes)
	for i := range single {
		tc, err := core.NewCollection[struct{}](app, fmt.Sprintf("hop%d", i))
		if err != nil {
			app.Close()
			return nil, nil, nil, nil, err
		}
		if err := tc.MapNodes(names[i]); err != nil {
			app.Close()
			return nil, nil, nil, nil, err
		}
		single[i] = tc
	}

	split := core.Split[*RingOrder, *BlockToken]("ring-split",
		func(c *core.Ctx, in *RingOrder, post func(*BlockToken)) {
			for i := 0; i < in.Blocks; i++ {
				post(&BlockToken{Seq: i, Data: make([]byte, in.BlockSize)})
			}
		})
	forward := func(hop int) *core.OpDef {
		return core.Leaf[*BlockToken, *BlockToken](fmt.Sprintf("ring-forward-%d", hop),
			func(c *core.Ctx, in *BlockToken) *BlockToken { return in })
	}
	merge := core.Merge[*BlockToken, *RingDone]("ring-merge",
		func(c *core.Ctx, first *BlockToken, next func() (*BlockToken, bool)) *RingDone {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &RingDone{Blocks: n}
		})

	nodes := []*core.GraphNode{core.NewNode(split, single[0], core.MainRoute())}
	for i := 1; i < ringNodes; i++ {
		nodes = append(nodes, core.NewNode(forward(i), single[i], core.MainRoute()))
	}
	nodes = append(nodes, core.NewNode(merge, single[0], core.MainRoute()))
	g, err := app.NewFlowgraph("ring", core.Path(nodes...))
	if err != nil {
		app.Close()
		return nil, nil, nil, nil, err
	}
	return app, g, trs, single, nil
}

// FailoverSpec asks the DPS ring run to crash one forwarding hop's node
// mid-benchmark (simnet power-failure semantics), exercising the
// fault-tolerance layer's detection, checkpoint restore and token replay
// under load. The engine configuration must enable checkpoints.
type FailoverSpec struct {
	// Hop is the forwarding hop whose node dies (1..ringNodes-1).
	Hop int
	// After is when to pull the plug, measured from the benchmark start.
	After time.Duration
}

// RunDPSFailover measures the DPS ring with a mid-run node crash: the run
// must still deliver every block exactly once (the merge total is checked
// by the caller against the baseline), and Result.Recovery reports the
// crash-to-restored latency.
func RunDPSFailover(cfg simnet.Config, ringNodes, totalBytes, blockSize int, appCfg core.Config, spec FailoverSpec) (Result, error) {
	if ringNodes < 2 || spec.Hop < 1 || spec.Hop >= ringNodes {
		return Result{}, fmt.Errorf("ringbench: failover hop %d out of range", spec.Hop)
	}
	if appCfg.Checkpoint <= 0 {
		return Result{}, fmt.Errorf("ringbench: failover run needs Config.Checkpoint")
	}
	net := simnet.New(cfg)
	defer net.Close()
	app, g, trs, _, err := buildRing(net, appCfg, ringNodes)
	if err != nil {
		return Result{}, err
	}
	defer app.Close()

	blocks := totalBytes / blockSize
	if blocks == 0 {
		blocks = 1
	}
	crashDone := make(chan time.Duration, 1)
	go func() {
		time.Sleep(spec.After)
		crashAt := time.Now()
		net.Crash(trs[spec.Hop].Local())
		// Recovery completes when the failover counter moves; poll it with
		// a deadline — if the crash landed after the run already finished,
		// passive detection never fires and the poll would spin forever.
		// A 1ms poll bounds the latency resolution without perturbing the
		// measured run (Stats() snapshots every runtime's counters).
		deadline := time.Now().Add(30 * time.Second)
		for app.Stats().FailoversCompleted == 0 && app.Err() == nil {
			if time.Now().After(deadline) {
				crashDone <- -1
				return
			}
			time.Sleep(time.Millisecond)
		}
		crashDone <- time.Since(crashAt)
	}()

	sw := trace.StartStopwatch()
	out, err := g.Call(context.Background(), &RingOrder{Blocks: blocks, BlockSize: blockSize})
	if err != nil {
		<-crashDone // join the monitor before deferred teardown
		return Result{}, err
	}
	elapsed := sw.Elapsed()
	recovery := <-crashDone
	if recovery < 0 {
		return Result{}, fmt.Errorf("ringbench: crash after %v was never detected (did the run finish before it?)", spec.After)
	}
	if got := out.(*RingDone).Blocks; got != blocks {
		return Result{}, fmt.Errorf("ringbench: %d of %d blocks arrived after the crash (exactly-once violated)", got, blocks)
	}
	total := int64(blocks) * int64(blockSize)
	return Result{
		BlockSize:  blockSize,
		TotalBytes: total,
		Elapsed:    elapsed,
		Throughput: trace.ThroughputMBs(total, elapsed),
		Recovery:   recovery,
		Stats:      app.Stats(),
	}, nil
}

// RunDPSChaos drives the DPS ring with repeated calls for at least span,
// while a caller-provided hook injects faults into the simulated network
// underneath. The hook runs once the application is up, with the nodes'
// transports, and returns a stop function joined before teardown (a nil
// hook just soaks the ring). Every call's merge total is checked against
// blocksPerCall — a lost or duplicated block fails the run. Returns the aggregate result and the
// number of completed calls.
func RunDPSChaos(cfg simnet.Config, ringNodes, blocksPerCall, blockSize int, appCfg core.Config, span time.Duration, hook func(*simnet.Network, *core.App, []transport.Transport) (stop func())) (Result, int, error) {
	if ringNodes < 2 {
		return Result{}, 0, fmt.Errorf("ringbench: need at least 2 nodes")
	}
	net := simnet.New(cfg)
	defer net.Close()
	app, g, trs, _, err := buildRing(net, appCfg, ringNodes)
	if err != nil {
		return Result{}, 0, err
	}
	defer app.Close()

	if hook != nil {
		stop := hook(net, app, trs)
		if stop != nil {
			defer stop()
		}
	}

	calls := 0
	sw := trace.StartStopwatch()
	for calls == 0 || sw.Elapsed() < span {
		out, err := g.Call(context.Background(), &RingOrder{Blocks: blocksPerCall, BlockSize: blockSize})
		if err != nil {
			return Result{}, calls, fmt.Errorf("ringbench: chaos call %d: %w", calls, err)
		}
		if got := out.(*RingDone).Blocks; got != blocksPerCall {
			return Result{}, calls, fmt.Errorf("ringbench: chaos call %d delivered %d of %d blocks (exactly-once violated)", calls, got, blocksPerCall)
		}
		calls++
	}
	elapsed := sw.Elapsed()
	total := int64(calls) * int64(blocksPerCall) * int64(blockSize)
	return Result{
		BlockSize:  blockSize,
		TotalBytes: total,
		Elapsed:    elapsed,
		Throughput: trace.ThroughputMBs(total, elapsed),
		Stats:      app.Stats(),
	}, calls, nil
}

// RunRaw measures the same ring using direct sends on the simulated
// network, without DPS envelopes or serialization — the paper's socket
// baseline. Each node forwards each block as soon as it arrives.
func RunRaw(cfg simnet.Config, ringNodes, totalBytes, blockSize int) (Result, error) {
	if ringNodes < 2 {
		return Result{}, fmt.Errorf("ringbench: need at least 2 nodes")
	}
	net := simnet.New(cfg)
	defer net.Close()
	names := make([]string, ringNodes)
	nodes := make([]*simnet.Node, ringNodes)
	for i := range names {
		names[i] = fmt.Sprintf("raw%d", i)
		nd, err := net.AddNode(names[i])
		if err != nil {
			return Result{}, err
		}
		nodes[i] = nd
	}

	blocks := totalBytes / blockSize
	if blocks == 0 {
		blocks = 1
	}
	errs := make(chan error, ringNodes)
	done := make(chan struct{})

	// Forwarders on nodes 1..n-1.
	for i := 1; i < ringNodes; i++ {
		go func(i int) {
			nxt := names[(i+1)%ringNodes]
			for j := 0; j < blocks; j++ {
				select {
				case m := <-nodes[i].Inbox():
					if err := nodes[i].Send(nxt, m.Payload); err != nil {
						errs <- err
						return
					}
				case <-nodes[i].Done():
					errs <- fmt.Errorf("ringbench: node %d shut down", i)
					return
				}
			}
			errs <- nil
		}(i)
	}
	// Collector back on node 0.
	go func() {
		for j := 0; j < blocks; j++ {
			select {
			case <-nodes[0].Inbox():
			case <-nodes[0].Done():
				errs <- fmt.Errorf("ringbench: collector shut down")
				return
			}
		}
		close(done)
		errs <- nil
	}()

	sw := trace.StartStopwatch()
	go func() {
		payload := make([]byte, blockSize)
		for j := 0; j < blocks; j++ {
			buf := make([]byte, blockSize)
			copy(buf, payload)
			if err := nodes[0].Send(names[1], buf); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()

	for i := 0; i < ringNodes+1; i++ {
		if err := <-errs; err != nil {
			return Result{}, err
		}
	}
	<-done
	elapsed := sw.Elapsed()
	total := int64(blocks) * int64(blockSize)
	return Result{
		BlockSize:  blockSize,
		TotalBytes: total,
		Elapsed:    elapsed,
		Throughput: trace.ThroughputMBs(total, elapsed),
	}, nil
}
