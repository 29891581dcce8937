package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Ctx is the execution context passed to every operation body. It exposes
// the thread's identity and state, and implements posting and group
// consumption with DPS semantics: the thread's execution lock is released
// whenever the operation blocks (flow-controlled posts, waiting for the
// next group token, nested graph calls), so other operations of the same
// thread keep making progress — e.g. a stalled split and the merge feeding
// its window on one main thread.
//
// A Ctx and the post function handed to a body belong to the goroutine
// running that body: posting from another goroutine is not supported, and
// a post, next, CallGraph or GroupIndex after the body returned panics
// with "dps: Ctx used after its operation returned". The rule makes each
// split group's flow-control gate single-poster — only the opener's
// execution acquires slots on it (pushGroupFrame), acknowledgements only
// release them — so a gate never has two waiters and needs no policy for
// ordering them.
type Ctx struct {
	rt    *Runtime
	inst  *threadInstance
	graph *Flowgraph
	node  *GraphNode
	env   *envelope
	// in is the execution's input token: the one token of a leaf or split,
	// the first of a collector's group.
	in Token

	// callID identifies the flow-graph invocation this execution belongs
	// to; it outlives env (which is recycled on completion) so the
	// cancellation paths can consult it at any point.
	callID uint64

	sg      *splitGroup // group opened by this split/stream execution
	mg      *mergeGroup // group consumed by this merge/stream execution
	postSeq int

	// drainer is true while the goroutine executing this operation holds
	// its thread instance's queue-drainer role. The first time the
	// operation blocks it hands the role off (see yieldInstLock) so queued
	// executions keep flowing, exactly as the seed's goroutine-per-token
	// scheme allowed.
	drainer bool
	// corked is set while frames this execution sent after it lost the
	// drainer role may sit corked in the transport, waiting for uncork.
	// The drainer role's own corked frames are the role's to let go
	// (noteCork).
	corked bool
}

// errStaleCtx is what a Ctx used after its execution returned panics with.
var errStaleCtx = errors.New("dps: Ctx used after its operation returned")

// live panics with errStaleCtx, before anything is touched, once the Ctx's
// execution has returned (it drops its envelope then): a stale Ctx must
// neither post into nor unlock for the execution running by that time.
func (c *Ctx) live() {
	if c.env == nil {
		panic(errStaleCtx)
	}
}

// yieldInstLock releases the thread's FIFO execution lock because the
// operation is about to block, first handing off the dispatch-drainer role
// if this goroutine holds it. Every blocking point (flow-controlled posts,
// merge next, nested graph calls) must use this instead of unlocking
// directly; the matching reacquire is relockInst, which deliberately does
// not re-take the drainer role. With fault tolerance enabled the pair also
// maintains the instance's parked-execution count, so a checkpoint item
// never captures while an operation is suspended mid-body.
func (c *Ctx) yieldInstLock() {
	c.uncork()
	c.releaseInst()
}

// releaseInst is yieldInstLock after its uncork: it hands off the drainer
// role and releases the execution lock, and writes nothing to a socket, so
// it may run under another lock (the flow-control gate's, pushGroupFrame).
func (c *Ctx) releaseInst() {
	if c.rt.app.ftOn {
		c.inst.yielded.Add(1)
	}
	if c.drainer {
		c.drainer = false
		c.inst.exec.Relinquish()
	}
	c.inst.exec.Unlock()
}

// noteCork records that a frame this execution sent waits corked in the
// transport (transport.Corker). Every token and result an execution sends
// is corked (postOut), so that what a drainer sends back to back leaves in
// one write per destination. While the execution holds the drainer role the
// frame is the role's: the drainer's idle step lets it go when the queue
// runs dry (sched.Instance.WantIdle), and a drainer that corked nothing
// never uncorks, so it cannot cut another execution's burst short. An
// execution that lost the role lets go of its own frames (uncork).
func (c *Ctx) noteCork() {
	if c.drainer {
		c.inst.exec.WantIdle()
	} else {
		c.corked = true
	}
}

// uncork lets go of the frames this execution left corked and, while it
// holds the drainer role, those of the executions the role ran before it.
// An execution calls it wherever it blocks (yieldInstLock, and
// pushGroupFrame before the gate's wait) and when it panics (recoverOp), and
// at its end once it no longer holds the role (runSimple, runCollector). A
// body that blocks outside the engine is let go by the transport's
// backstop.
func (c *Ctx) uncork() {
	if c.drainer && c.inst.exec.TakeIdle() {
		c.corked = true
	}
	if c.corked {
		c.corked = false
		c.rt.lnk.ck.Uncork()
	}
}

// relockInst reacquires the execution lock after a yieldInstLock.
func (c *Ctx) relockInst() {
	c.inst.exec.Lock()
	if c.rt.app.ftOn {
		c.inst.yielded.Add(-1)
	}
}

// Node returns the cluster node name the operation is executing on.
func (c *Ctx) Node() string { return c.rt.name }

// ThreadIndex returns the thread's index within its collection.
func (c *Ctx) ThreadIndex() int { return c.inst.index }

// ThreadCount returns the size of the executing thread's collection.
func (c *Ctx) ThreadCount() int { return c.inst.tc.ThreadCount() }

// State returns the thread's private state (*S for a collection created
// with NewCollection[S]); see also the typed helper StateOf.
func (c *Ctx) State() any { return c.inst.state }

// Graph returns the flow graph being executed.
func (c *Ctx) Graph() *Flowgraph { return c.graph }

// App returns the owning application.
func (c *Ctx) App() *App { return c.rt.app }

// GroupIndex returns the index of the current input token within its group
// (the posting order assigned by the split), or -1 outside a group.
func (c *Ctx) GroupIndex() int {
	c.live()
	if fr, ok := c.env.topFrame(); ok {
		return fr.Index
	}
	return -1
}

// CallGraph invokes another flow graph and waits for its result, releasing
// the thread while blocked. Called on a graph exposed by another
// application this is the paper's inter-application parallel service call
// (Figure 10): the call behaves like a leaf operation, preserving
// pipelining and token queueing. The nested call inherits the originating
// call's context, so canceling the outer call cancels the service call too:
// like CallFrom, the execution waiting for the result watches that context
// itself (awaitCall), with the thread released meanwhile.
func (c *Ctx) CallGraph(g *Flowgraph, tok Token) (Token, error) {
	c.live()
	origin := c.rt.name
	if g.app != c.rt.app {
		// Foreign application: its result returns to its own master node
		// and reaches us through the in-process call table.
		origin = g.app.MasterNode()
	}
	ctx := c.callContext()
	if ctx == nil {
		ctx = context.Background()
	}
	id, ce, err := g.startCall(ctx, origin, tok)
	if err != nil {
		return nil, err
	}
	c.yieldInstLock()
	res := g.app.awaitCall(ctx, id, ce)
	c.relockInst()
	return res.Value, res.Err
}

// callContext returns the context of the call this execution belongs to,
// or nil when the call is no longer pending (e.g. already canceled). The
// engine only has the context of calls originated by this process; tokens
// arriving from a foreign process (real TCP kernels) see nil and rely on
// the application-failure path alone.
func (c *Ctx) callContext() context.Context {
	return c.rt.app.callContext(c.callID)
}

// checkCanceled panics with the call context's error if the invocation this
// execution belongs to was canceled, unwinding the operation. recoverOp
// recognizes the unwind and cleans up without failing the application.
func (c *Ctx) checkCanceled() {
	if c.rt.app.callAborted(c.callID) {
		panic(opError{context.Canceled})
	}
}

// postOut posts an output token according to the executing operation's
// kind: leaves forward the accounting frames unchanged, splits and streams
// push a frame of their group (blocking on the flow-control gate), and
// merges pop the completed group's frame.
func (c *Ctx) postOut(tok Token) {
	c.live()
	if tok == nil {
		panic(opError{fmt.Errorf("posted nil token")})
	}
	c.checkCanceled()
	t, err := tokType(tok)
	if err != nil {
		panic(opError{err})
	}
	seq := c.postSeq
	c.postSeq++
	g := c.graph

	// The output's frame stack is the part of the input's it carries on
	// plus, for an opener, the frame of the group being posted into. It is
	// copied into the output's envelope below, never shared with the input's.
	carried := c.env.frames()
	var pushed []frame
	lastWorker, creditNode := -1, -1
	switch c.node.op.kind {
	case KindLeaf:
		// Carry the load-balancing charge through to the merge.
		lastWorker, creditNode = c.env.LastWorker, c.env.CreditNode
	case KindSplit:
		pushed = []frame{c.pushGroupFrame(tok, seq)}
	case KindStream:
		pushed = []frame{c.pushGroupFrame(tok, seq)}
		carried = carried[:len(carried)-1]
	case KindMerge:
		// A merge produces its single output only after the whole group has
		// been consumed; posting earlier is a programming error (the paper's
		// waitForNextToken loop runs to completion before postToken).
		c.mg.mu.Lock()
		complete := c.mg.total >= 0 && c.mg.consumed >= c.mg.total
		c.mg.mu.Unlock()
		if !complete {
			panic(opError{fmt.Errorf("merge posted its output before consuming its group (call next until it reports false)")})
		}
		carried = carried[:len(carried)-1]
	}

	if c.node.id == g.exit {
		if c.rt.lnk.sendResult(c.env, tok) {
			c.noteCork()
		}
		return
	}

	succ, err := g.successorFor(c.node.id, t)
	if err != nil {
		panic(opError{err})
	}
	succNode := g.nodes[succ]
	var thread int
	if succNode.op.kind == KindMerge || succNode.op.kind == KindStream {
		switch {
		case len(pushed) > 0:
			thread = pushed[0].MergeThread
		case len(carried) > 0:
			thread = carried[len(carried)-1].MergeThread
		default:
			panic(opError{fmt.Errorf("no group frame routing into %s %q", succNode.op.kind, succNode.op.name)})
		}
	} else if thread, err = c.rt.routeThread(g, succ, tok, seq); err != nil {
		panic(opError{err})
	}

	// An opener's post to a leaf is charged to the leaf's credit tracker,
	// which its route reads; a fixed route reads none, so none is charged.
	isOpenerPost := c.node.op.kind == KindSplit || c.node.op.kind == KindStream
	if isOpenerPost && succNode.op.kind == KindLeaf && !succNode.route.fixed {
		c.rt.credit(g, succ, succNode.tc.ThreadCount()).Charge(thread)
		lastWorker, creditNode = thread, succ
	}

	// The output envelope lives on this stack: routeToken borrows it, and a
	// by-pointer delivery takes a pooled copy (link.sendToken).
	var env envelope
	env.Graph = g
	env.Node = succ
	env.Thread = thread
	env.CallID = c.env.CallID
	env.CallOrigin = c.env.CallOrigin
	env.LastWorker = lastWorker
	env.CreditNode = creditNode
	fs := env.newFrames(len(carried) + len(pushed))
	copy(fs[copy(fs, carried):], pushed)
	env.Token = tok
	env.ftSender = c.inst.ft        // nil unless fault tolerance is enabled
	env.ftInStream = c.env.FTStream // the execution's input stream (determinant)
	env.ftInSeq = c.env.FTSeq       // ...and its sequence there (regen attribution)
	if c.env.TraceID != 0 {
		// Trace context propagates to every output of a sampled execution:
		// across splits and merges the outputs inherit the input's trace ID,
		// so the whole call shares one timeline.
		env.TraceID = c.env.TraceID
		c.rt.traceSpan(env.TraceID, "post", c.node.op.name, time.Now().UnixNano(), 0)
	}
	if c.rt.routeToken(&env, succNode.tc, thread, txCorked) {
		c.noteCork()
	}
}

// pushGroupFrame allocates the next index in the execution's open group,
// fixing the paired merge instance on the first post and acquiring a slot
// on the group's flow-control gate (blocking while its window is
// exhausted). The execution is the gate's only poster (see Ctx).
func (c *Ctx) pushGroupFrame(tok Token, seq int) frame {
	sg := c.sg
	if sg == nil {
		panic(opError{fmt.Errorf("internal: opener post without a split group")})
	}
	sg.mu.Lock()
	if sg.mergeThread < 0 {
		mt, err := c.rt.routeThread(sg.graph, sg.closer, tok, seq)
		if err != nil {
			sg.mu.Unlock()
			panic(opError{err})
		}
		sg.mergeThread = mt
	}
	mt := sg.mergeThread
	sg.mu.Unlock()

	if !sg.gate.TryAcquire() {
		// The burst ends here, before the gate's wait and with no lock
		// held: onStall runs under the gate's mutex, which the ack's read
		// loop and a cancel need, so it must not write to a socket.
		c.uncork()
		// failed must also observe call cancellation: the cancel
		// bookkeeping can land between our cancellation check and the
		// gate wait, in which case the context is already detached from
		// the call table and only the canceled set knows.
		failed := func() error {
			if err := c.rt.app.Err(); err != nil {
				return err
			}
			if c.rt.app.callDead(c.callID) {
				return context.Canceled
			}
			return nil
		}
		var stallNs int64
		stalled, err := sg.gate.Acquire(c.callContext(), func() {
			// First wait on an exhausted window: count the stall and
			// release the thread so other operations keep making progress.
			if c.env.TraceID != 0 {
				stallNs = time.Now().UnixNano()
			}
			atomic.AddInt64(&c.rt.stats.WindowStalls, 1)
			c.releaseInst()
		}, failed)
		if stalled {
			if stallNs != 0 {
				c.rt.traceSpan(c.env.TraceID, "stall", c.node.op.name, stallNs, time.Now().UnixNano()-stallNs)
			}
			// Reacquire so the execution continues (or unwinds) holding
			// its lock, balancing the deferred unlock.
			c.relockInst()
		}
		if err != nil {
			panic(opError{err})
		}
	}

	sg.mu.Lock()
	idx := sg.posted
	sg.posted++
	sg.mu.Unlock()
	return frame{GroupID: sg.id, Index: idx, Origin: c.rt, MergeThread: mt}
}

// nextIn yields the next token of the group consumed by a merge/stream
// execution, acknowledging consumption to the split side.
func (c *Ctx) nextIn() (Token, bool) {
	c.live()
	mg := c.mg
	if mg == nil {
		panic(opError{fmt.Errorf("dps: %s %q must not call next", c.node.op.kind, c.node.op.name)})
	}
	mg.mu.Lock()
	unlocked := false
	for {
		if mg.buf.Len() > 0 {
			bt := mg.buf.Pop()
			mg.consumed++
			mg.mu.Unlock()
			if unlocked {
				c.relockInst()
			}
			c.rt.ackConsumed(bt)
			c.rt.ftConsumed(bt, c.inst)
			return bt.tok, true
		}
		if mg.total >= 0 && mg.consumed >= mg.total {
			mg.mu.Unlock()
			if unlocked {
				c.relockInst()
			}
			return nil, false
		}
		// Consult cancellation before parking, not only after wake-ups:
		// the cancel broadcast may have happened before this execution
		// reached the wait, and no further token or group-end will come.
		if c.rt.app.callAborted(c.callID) {
			mg.mu.Unlock()
			if unlocked {
				c.relockInst()
			}
			panic(opError{context.Canceled})
		}
		if !unlocked {
			c.yieldInstLock()
			unlocked = true
		}
		mg.cond.Wait()
		if err := c.rt.app.Err(); err != nil {
			mg.mu.Unlock()
			if unlocked {
				// Keep the thread lock balanced for the deferred unlock.
				c.relockInst()
			}
			panic(opError{err})
		}
	}
}
