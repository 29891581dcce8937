// Package dps is the public, supported API of this Dynamic Parallel
// Schedules reproduction (Gerlach & Hersch, HIPS/IPDPS 2003): parallel
// applications built from compositional split–compute–merge flow graphs,
// mapped at runtime onto collections of threads spread across cluster
// nodes.
//
// The package is a thin, allocation-free façade over the engine in
// internal/core. It adds three things the engine's internal surface does
// not have:
//
//   - Typed graphs. Stages carry their token types as type parameters
//     (Stage[In, Out]) and the Chain/Then builder propagates them, so
//     wiring a stage whose input type does not match its predecessor's
//     output type is a compile error — the paper's
//     FlowgraphNode<Operation, Route> coherence made literal. The built
//     Graph[In, Out] is called without type assertions:
//     Call(ctx, in) (Out, error).
//
//   - Context-aware calls. Every call takes a context.Context; canceling
//     it returns promptly with ctx's error, deregisters the pending call,
//     and drains the call's in-flight tokens so an abandoned invocation
//     releases its flow-control window slots instead of wedging the graph.
//
//   - Functional options. NewLocal / NewSim / Connect replace hand-built
//     engine configuration with WithWindow, WithForceSerialize,
//     WithRegistry, WithNodes and the other With* options.
//
// A minimal application:
//
//	app, err := dps.NewLocal(dps.WithNodes("nodeA", "nodeB"), dps.WithWindow(16))
//	main := dps.MustCollection[struct{}](app, "main")
//	_ = main.Map("nodeA")
//	work := dps.MustCollection[struct{}](app, "work")
//	_ = work.Map("nodeB*2")
//
//	split := dps.Split("split", main, dps.MainRoute(),
//	    func(c *dps.Ctx, in *Req, post func(*Part)) { ... })
//	comp := dps.Leaf("compute", work, dps.RoundRobin(),
//	    func(c *dps.Ctx, in *Part) *Part { ... })
//	merge := dps.Merge("merge", main, dps.MainRoute(),
//	    func(c *dps.Ctx, first *Part, next func() (*Part, bool)) *Resp { ... })
//
//	g := dps.MustBuild(app, "service", dps.Then(dps.Then(dps.Chain(split), comp), merge))
//	out, err := g.Call(ctx, &Req{...}) // out is *Resp, no assertion
//
// Graphs that are not simple chains (conditional type-routed paths built
// with the engine's Path/Add combinators) and the repo's internal
// application packages remain reachable through App.Core.
package dps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Token is a DPS data object: a pointer to a struct whose exported fields
// are serializable. Register token types with Register before use.
type Token = core.Token

// ErrOverload is wrapped by Call/CallAsync errors when the application's
// in-flight call budget (WithMaxInFlightCalls) is exhausted: the call was
// shed at admission, nothing was posted, and the caller should back off and
// retry. Test with errors.Is.
var ErrOverload = core.ErrOverload

// Ctx is the execution context passed to every operation body.
type Ctx = core.Ctx

// CallResult is the outcome of one flow-graph invocation.
type CallResult = core.CallResult

// Stats are cumulative engine counters of an application or node runtime.
type Stats = core.Stats

// Flowgraph is a validated, executable flow graph. Typed graphs built with
// Build wrap one; untyped graphs constructed by internal application
// packages can be given static call types with Typed.
type Flowgraph = core.Flowgraph

// OpDef is an operation definition (sequential user code plus its
// token-type signature), reusable across stages and graphs.
type OpDef = core.OpDef

// Registry is a token type registry; the process-wide default is used
// unless WithRegistry selects another.
type Registry = serial.Registry

// NewRegistry creates an empty token registry for applications that must
// not share the process-wide default.
func NewRegistry() *Registry { return serial.NewRegistry() }

// Register records T (a struct type) in the process-wide token registry,
// enabling automatic serialization of *T tokens — the paper's IDENTIFY
// macro. It panics on unregistrable types; use it in a package-level var
// block next to the type definition:
//
//	type ReqToken struct{ N int }
//	var _ = dps.Register[ReqToken]()
func Register[T any]() struct{} { return serial.MustRegister[T]() }

// App is a DPS application: a set of cluster-node runtimes plus the thread
// collections and flow graphs defined on them.
type App struct {
	core *core.App
}

// NewLocal creates an application whose nodes communicate through an
// in-process fabric with no modelled cost (the paper's single-host mode).
// Name the virtual nodes with WithNodes; one node "node0" is created
// otherwise.
func NewLocal(opts ...Option) (*App, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	app, err := core.NewLocalApp(cfg.engine, cfg.nodeNames()...)
	if err != nil {
		return nil, err
	}
	return &App{core: app}, nil
}

// NewSim creates an application whose nodes are attached to a simulated
// cluster network; tokens crossing nodes are serialized and pay the
// modelled NIC and latency costs. Name the nodes with WithNodes.
func NewSim(net *simnet.Network, opts ...Option) (*App, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	trs, err := transport.SimNodes(net, cfg.nodeNames()...)
	if err != nil {
		return nil, err
	}
	app, err := core.NewAppOn(cfg.engine, trs...)
	if err != nil {
		return nil, err
	}
	return &App{core: app}, nil
}

// Connect creates an application attached to an externally managed
// transport — typically a kernel daemon's TCP fabric (cmd/dps-kernel). The
// transport's local name becomes the node name; attach further nodes with
// Attach. WithNodes is rejected: node identity comes from the transport.
func Connect(tr transport.Transport, opts ...Option) (*App, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if len(cfg.nodes) > 0 {
		return nil, fmt.Errorf("dps: Connect derives node names from transports; WithNodes is not applicable")
	}
	app := core.NewApp(cfg.engine)
	if _, err := app.AttachTransport(tr); err != nil {
		app.Close()
		return nil, err
	}
	return &App{core: app}, nil
}

// Attach adds another cluster node to the application through its
// transport.
func (a *App) Attach(tr transport.Transport) error {
	_, err := a.core.AttachTransport(tr)
	return err
}

// Close shuts the application down. Pending calls fail.
func (a *App) Close() { a.core.Close() }

// Err reports the first unrecoverable runtime error, if any.
func (a *App) Err() error { return a.core.Err() }

// NodeNames lists the application's nodes in attachment order.
func (a *App) NodeNames() []string { return a.core.NodeNames() }

// MasterNode returns the first attached node, conventionally hosting main
// threads and graph calls.
func (a *App) MasterNode() string { return a.core.MasterNode() }

// Stats aggregates the engine counters of every node runtime.
func (a *App) Stats() *Stats { return a.core.Stats() }

// PendingCalls reports the graph calls currently admitted and not yet
// settled — the live in-flight population that WithMaxInFlightCalls
// budgets. A drained application reports zero.
func (a *App) PendingCalls() int { return a.core.PendingCalls() }

// FailNode declares a cluster node dead and synchronously recovers its
// threads onto the surviving nodes (see WithCheckpoint): placements flip,
// the newest committed checkpoints restore on survivors, retained
// in-flight tokens replay, and duplicate deliveries are suppressed, so
// executing calls complete with exactly-once semantics. It is the entry
// point for external failure detectors — kernel heartbeats, deployment
// tooling — and for fault injection in tests; the engine's own detector
// (transport send errors of real traffic) converges on the same recovery.
// Fault tolerance must be enabled, and the master node cannot be failed.
func (a *App) FailNode(node string) error { return a.core.FailNode(node) }

// Graph returns a registered flow graph by name (the paper's named graphs,
// reusable as parallel services by other applications). Give it static
// call types with Typed.
func (a *App) Graph(name string) (*Flowgraph, bool) { return a.core.Graph(name) }

// Collection returns a registered thread collection by name.
func (a *App) Collection(name string) (*Collection, bool) { return a.core.Collection(name) }

// Core exposes the underlying engine application. It exists for the repo's
// internal application packages (parlife, parlin, stripefs, ringbench,
// bench), which predate this façade and take a *core.App, and for graph
// shapes the typed builder cannot express; new code should not need it.
func (a *App) Core() *core.App { return a.core }
