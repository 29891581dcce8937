package core

import (
	"context"
	"fmt"
)

// Call executes the flow graph on one input token from the application's
// master node and waits for the single output token. Multiple concurrent
// calls pipeline through the graph, each identified by a call ID.
//
// Canceling ctx abandons the call promptly: Call returns ctx's error, the
// pending-call entry is deregistered, and the engine drops the call's
// in-flight tokens — releasing their flow-control window slots and
// load-balancing credits — so an abandoned call cannot wedge the graph for
// later callers.
func (g *Flowgraph) Call(ctx context.Context, tok Token) (Token, error) {
	return g.CallFrom(ctx, g.app.MasterNode(), tok)
}

// CallFrom is Call with an explicit origin node; the result token is routed
// back to that node. A nil ctx is treated as context.Background().
//
// Unlike CallAsyncFrom, the synchronous path registers no context watcher —
// the waiting caller watches ctx itself (awaitCall) — and recycles the
// pending-call entry once the single result has been received: nothing else
// can reach a settled entry (settlement is keyed by the never-reused call
// ID), so saturated callers don't allocate an entry and channel per call.
func (g *Flowgraph) CallFrom(ctx context.Context, origin string, tok Token) (Token, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id, ce, err := g.startCall(ctx, origin, tok)
	if err != nil {
		return nil, err
	}
	res := g.app.awaitCall(ctx, id, ce)
	return res.Value, res.Err
}

// CallAsync starts a call from the master node and returns the channel the
// result will be delivered on.
func (g *Flowgraph) CallAsync(ctx context.Context, tok Token) (<-chan CallResult, error) {
	return g.CallAsyncFrom(ctx, g.app.MasterNode(), tok)
}

// CallAsyncFrom starts a call from the given origin node. The returned
// channel receives exactly one CallResult; pending calls fail when the
// application fails or closes, and receive ctx's error when ctx is canceled
// before the result arrives. A nil ctx is treated as context.Background().
//
// When Config.MaxInFlightCalls is set and the budget is exhausted, the call
// is shed at admission: the error wraps ErrOverload and nothing was posted,
// so the caller can back off and retry.
func (g *Flowgraph) CallAsyncFrom(ctx context.Context, origin string, tok Token) (<-chan CallResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id, ce, err := g.startCall(ctx, origin, tok)
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		// No goroutine waits for an async call: a watcher cancels it when
		// ctx fires. setCallStop detaches it at once if the call settled
		// already.
		app := g.app
		app.setCallStop(id, context.AfterFunc(ctx, func() {
			app.cancelCall(id, context.Cause(ctx))
		}))
	}
	return ce.ch, nil
}

// startCall validates, admits, registers and posts one graph call, returning
// its ID and the pending entry whose channel delivers the single result.
// Nothing watches ctx yet: a synchronous caller does so itself (awaitCall),
// CallAsyncFrom attaches a context.AfterFunc.
func (g *Flowgraph) startCall(ctx context.Context, origin string, tok Token) (uint64, *callEntry, error) {
	app := g.app
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if err := app.Err(); err != nil {
		return 0, nil, err
	}
	if app.ftOn {
		// Fault tolerance starts lazily with the first call, before its
		// entry token posts: sequencing needs the serialized routing path.
		app.ftOnce.Do(app.ftStart)
	}
	rt, ok := app.runtime(origin)
	if !ok {
		return 0, nil, fmt.Errorf("dps: graph %q: unknown origin node %q", g.name, origin)
	}
	t, err := tokType(tok)
	if err != nil {
		return 0, nil, err
	}
	entryNode := g.nodes[g.entry]
	if !entryNode.op.acceptsIn(t) {
		return 0, nil, fmt.Errorf("dps: graph %q: entry %q does not accept %s", g.name, entryNode.op.name, t)
	}
	for _, n := range g.nodes {
		if n.tc.ThreadCount() == 0 {
			return 0, nil, fmt.Errorf("dps: graph %q: collection %q is not mapped", g.name, n.tc.Name())
		}
	}
	thread, err := rt.routeThread(g, g.entry, tok, 0)
	if err != nil {
		return 0, nil, fmt.Errorf("dps: graph %q: entry %w", g.name, err)
	}
	id, ce, err := app.registerCall(ctx, rt)
	if err != nil {
		return 0, nil, fmt.Errorf("dps: graph %q: %w", g.name, err)
	}
	// The entry envelope lives on this stack, borrowed by the send like an
	// execution's post (Ctx.postOut).
	var env envelope
	env.Graph = g
	env.Node = g.entry
	env.Thread = thread
	env.CallID = id
	env.CallOrigin = rt
	env.LastWorker = -1
	env.CreditNode = -1
	env.Token = tok
	env.ftSender = rt.ftNode // nil unless fault tolerance is enabled
	if ce.sampled {
		// The sampling decision was made at admission (registerCall); the
		// call ID doubles as the trace ID stamped into every envelope of the
		// call. The admission clock anchors the timeline.
		env.TraceID = id
		rt.traceSpan(id, "post", g.name, ce.start, 0)
	}
	if err := rt.routeSafe(&env, entryNode.tc, thread); err != nil {
		app.completeCall(id, CallResult{Err: err})
	}
	return id, ce, nil
}

// awaitCall waits for the single result of a synchronous call and recycles
// its entry. The waiting caller is the call's cancellation watcher: if ctx
// fires first it cancels the call itself — the same cancelCall an async
// call's AfterFunc runs — and then receives the one result, which is ctx's
// cause unless the call had already settled.
func (app *App) awaitCall(ctx context.Context, id uint64, ce *callEntry) CallResult {
	var res CallResult
	select {
	case res = <-ce.ch:
	case <-ctx.Done():
		app.cancelCall(id, context.Cause(ctx))
		res = <-ce.ch
	}
	recycleCallEntry(ce)
	return res
}

// GraphCallOp wraps a flow graph as a leaf operation: the caller's graph
// sees the whole remote computation as a single 1→1 node, preserving
// pipelining and queueing across the call (paper Figure 10). The target may
// belong to another application, making it an inter-application parallel
// service call.
func GraphCallOp(name string, target *Flowgraph) *OpDef {
	entry := target.nodes[target.entry].op
	exit := target.nodes[target.exit].op
	return &OpDef{
		name:     name,
		kind:     KindLeaf,
		inTypes:  entry.InTypes(),
		outTypes: exit.OutTypes(),
		run: func(c *Ctx) {
			out, err := c.CallGraph(target, c.in)
			if err != nil {
				panic(opError{fmt.Errorf("graph call %q: %w", target.Name(), err)})
			}
			c.postOut(out)
		},
	}
}
