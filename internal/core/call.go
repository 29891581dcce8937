package core

import (
	"context"
	"errors"
	"fmt"
	"time"
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
// back to that node.
//
// Unlike CallAsyncFrom, the synchronous path recycles the pending-call entry
// once the single result has been received: nothing else can reach a settled
// entry (settlement is keyed by the never-reused call ID), so saturated
// callers don't allocate an entry and channel per call.
func (g *Flowgraph) CallFrom(ctx context.Context, origin string, tok Token) (Token, error) {
	ce, err := g.startCall(ctx, origin, tok)
	if err != nil {
		return nil, err
	}
	res := <-ce.ch
	recycleCallEntry(ce)
	return res.Value, res.Err
}

// CallTimeout is CallFrom with a deadline.
//
// Deprecated: use CallFrom with a context from context.WithTimeout. This
// shim remains for existing experiments; unlike the historical behaviour
// (which merely stopped waiting), the expired deadline now cancels the call
// like any other context cancellation.
func (g *Flowgraph) CallTimeout(origin string, tok Token, d time.Duration) (Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	out, err := g.CallFrom(ctx, origin, tok)
	if errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("dps: graph %q: call timed out after %v: %w", g.name, d, err)
	}
	return out, err
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
	ce, err := g.startCall(ctx, origin, tok)
	if err != nil {
		return nil, err
	}
	return ce.ch, nil
}

// startCall validates, admits, registers and posts one graph call, returning
// the pending entry whose channel delivers the single result.
func (g *Flowgraph) startCall(ctx context.Context, origin string, tok Token) (*callEntry, error) {
	app := g.app
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := app.Err(); err != nil {
		return nil, err
	}
	if app.ftOn {
		// Fault tolerance starts lazily with the first call, before its
		// entry token posts: sequencing needs the serialized routing path.
		app.ftOnce.Do(app.ftStart)
	}
	rt, ok := app.runtime(origin)
	if !ok {
		return nil, fmt.Errorf("dps: graph %q: unknown origin node %q", g.name, origin)
	}
	t, err := tokType(tok)
	if err != nil {
		return nil, err
	}
	entryNode := g.nodes[g.entry]
	if !entryNode.op.acceptsIn(t) {
		return nil, fmt.Errorf("dps: graph %q: entry %q does not accept %s", g.name, entryNode.op.name, t)
	}
	for _, n := range g.nodes {
		if n.tc.ThreadCount() == 0 {
			return nil, fmt.Errorf("dps: graph %q: collection %q is not mapped", g.name, n.tc.Name())
		}
	}
	count := entryNode.tc.ThreadCount()
	ct := rt.credit(g.name, g.entry, count)
	thread := entryNode.route.pick(tok, RouteCtx{ThreadCount: count, Seq: 0, Outstanding: ct.Outstanding})
	if thread < 0 || thread >= count {
		return nil, fmt.Errorf("dps: graph %q: entry route %q returned thread %d of %d", g.name, entryNode.route.Name(), thread, count)
	}
	id, ce, err := app.registerCall(ctx, rt)
	if err != nil {
		return nil, fmt.Errorf("dps: graph %q: %w", g.name, err)
	}
	if ctx.Done() != nil {
		app.setCallStop(id, context.AfterFunc(ctx, func() {
			app.cancelCall(id, context.Cause(ctx))
		}))
	}
	env := getEnvelope()
	env.Graph = g.name
	env.Node = g.entry
	env.Thread = thread
	env.CallID = id
	env.CallOrigin = origin
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
	if err := rt.routeSafe(env, entryNode.tc, thread); err != nil {
		app.completeCall(id, CallResult{Err: err})
	}
	return ce, nil
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
