package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core/flowctl"
	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/core/sched"
)

// This file is the engine's groups layer: the lifecycle of split–merge (and
// stream) groups. The split side tracks each open group in a groupTable —
// its flow-control gate, posted count and paired merge instance — until the
// opener finished and every token was acknowledged; the merge side buffers
// arriving tokens per group on the destination thread instance until the
// collector execution consumes them and the group-end total arrives.

// groupTable is the split-side registry of open groups on one node.
type groupTable struct {
	nodeIdx int
	seq     atomic.Uint64

	mu     sync.Mutex
	splits map[uint64]*splitGroup
}

func (gt *groupTable) init(nodeIdx int) {
	gt.nodeIdx = nodeIdx
	gt.splits = make(map[uint64]*splitGroup)
}

// open initialises sg — zero memory the opener's execution provides — as a
// new group opened by the graph node opener, flow controlled by a fresh gate
// of window slots, and registers it.
func (gt *groupTable) open(sg *splitGroup, g *Flowgraph, opener int, window int) {
	id := uint64(gt.nodeIdx)<<48 | (gt.seq.Add(1) & (1<<48 - 1))
	*sg = splitGroup{
		id:          id,
		graph:       g,
		opener:      opener,
		closer:      g.closerOf[opener],
		mergeThread: -1,
	}
	sg.gate.Init(window)
	gt.mu.Lock()
	gt.splits[id] = sg
	gt.mu.Unlock()
}

// remove deletes a group, reporting whether it was still registered (so a
// racing reap runs its side effects exactly once).
func (gt *groupTable) remove(id uint64) bool {
	gt.mu.Lock()
	_, ok := gt.splits[id]
	delete(gt.splits, id)
	gt.mu.Unlock()
	return ok
}

func (gt *groupTable) lookup(id uint64) *splitGroup {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	return gt.splits[id]
}

func (gt *groupTable) all() []*splitGroup {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	out := make([]*splitGroup, 0, len(gt.splits))
	for _, sg := range gt.splits {
		out = append(out, sg)
	}
	return out
}

// splitGroup is the split-side state of one open group: the flow-control
// gate and the identity of the paired merge instance. The gate has one
// poster, the opener's execution (Ctx.pushGroupFrame); acknowledgements
// release it from whichever goroutine receives them. A split's group is
// allocated together with the split's Ctx (runSimple), a stream's on its
// own; neither is ever reused.
type splitGroup struct {
	id     uint64
	graph  *Flowgraph
	opener int // graph node that opened the group
	closer int // paired merge/stream node
	gate   flowctl.Gate

	// callID identifies the invocation the group belongs to; outerAck is
	// the enclosing group's frame the opener's input token carried, owed
	// exactly once by this group's subtree. In normal operation the paired
	// merge's output token delivers it downstream; if the call is canceled
	// the reap of this group fires it directly, so nested cancellations
	// release the outer window slot too.
	callID   uint64
	outerAck *bufferedToken

	mu          sync.Mutex
	posted      int
	done        bool // opener's execute returned
	mergeThread int  // -1 until the first token fixes the instance

	// end is the group-end announcement finishOpener sends, once.
	end groupEndMsg
}

// mergeGroup is the merge-side state of one group on a thread instance. It
// also holds the Ctx of the collector execution that consumes the group
// (runCollector): one group, one execution, so the Ctx is never reused.
type mergeGroup struct {
	// callID identifies the invocation the group belongs to, so the
	// cancellation sweep can retire never-started groups.
	callID uint64

	mu   sync.Mutex
	cond sync.Cond // on mu

	buf      sched.Fifo[bufferedToken]
	started  bool
	consumed int
	total    int // -1 while unknown

	exec Ctx
}

type bufferedToken struct {
	tok        Token
	lastWorker int
	creditNode int
	origin     *Runtime
	groupID    uint64
	// ftStream / ftSeq carry the token's sender-stream identity when fault
	// tolerance is enabled, so consumption on the master node can truncate
	// the sender's retention log (the ack-driven GC hook).
	ftStream ft.Stream
	ftSeq    uint64
}

// mergeGroup returns the instance's merge-side state of a group, creating it
// for the given call on its first token or group-end. A new group's buffer
// starts from the array the instance's last completed group handed down
// (completeGroup), if one is spare.
func (inst *threadInstance) mergeGroup(groupID, callID uint64) *mergeGroup {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	mg, ok := inst.groups[groupID]
	if !ok {
		mg = &mergeGroup{callID: callID, total: -1}
		mg.cond.L = &mg.mu
		if inst.spareBuf != nil {
			mg.buf.Adopt(inst.spareBuf)
			inst.spareBuf = nil
		}
		inst.groups[groupID] = mg
	}
	return mg
}

// completeGroup removes a group whose collector ran to completion and hands
// its emptied buffer array down to the next group created on the instance.
// Every token such a group buffered was consumed; a group retired by a
// cancellation (retireMergeGroup) never hands its array on.
func (inst *threadInstance) completeGroup(groupID uint64, mg *mergeGroup) {
	mg.mu.Lock()
	buf := mg.buf.Detach()
	mg.mu.Unlock()
	if h := inst.rt.app.handDownHook; h != nil && cap(buf) > 0 {
		h(mg.callID, buf)
	}
	inst.mu.Lock()
	delete(inst.groups, groupID)
	if cap(buf) > 0 {
		inst.spareBuf = buf
	}
	inst.mu.Unlock()
}

// openGroup initialises and registers sg as the split-side state of the
// group a split/stream execution opens on this node, remembering the
// enclosing frame of the opener's input token for cancellation accounting.
// For a split that frame is the input's top frame (the closer merge pops the
// split's own frame, leaving it on top of the output); a stream's input top
// frame is the group the stream itself collects — its subtree carries the
// frame *below* it onward (postOut's KindStream branch), so that one is
// recorded instead.
func (rt *Runtime) openGroup(c *Ctx, opener int, sg *splitGroup) *splitGroup {
	rt.groups.open(sg, c.graph, opener, rt.window)
	sg.callID = c.callID
	var outer *frame
	switch c.node.op.kind {
	case KindStream:
		if fs := c.env.frames(); len(fs) >= 2 {
			outer = &fs[len(fs)-2]
		}
	default:
		if fr, ok := c.env.topFrame(); ok {
			outer = fr
		}
	}
	if outer != nil {
		// The closer output that would normally carry this frame onward
		// has LastWorker/CreditNode unset, so the cancellation ack matches.
		sg.outerAck = &bufferedToken{
			lastWorker: -1,
			creditNode: -1,
			origin:     outer.Origin,
			groupID:    outer.GroupID,
		}
	}
	atomic.AddInt64(&rt.stats.GroupsOpened, 1)
	return sg
}

// finishOpener closes the group opened by a split or stream execution:
// announces the total to the paired merge instance and enforces the
// at-least-one-token rule.
func (rt *Runtime) finishOpener(c *Ctx) {
	sg := c.sg
	if sg == nil {
		return
	}
	sg.mu.Lock()
	posted := sg.posted
	mergeThread := sg.mergeThread
	sg.done = true
	sg.mu.Unlock()
	if posted == 0 {
		panic(opError{fmt.Errorf("dps: %s %q posted no tokens for its group", c.node.op.kind, c.node.op.name)})
	}
	closerNode := sg.graph.nodes[sg.closer]
	sg.end = groupEndMsg{
		Graph:   sg.graph,
		Node:    sg.closer,
		Thread:  mergeThread,
		GroupID: sg.id,
		Total:   posted,
		CallID:  c.callID,
	}
	rt.routeGroupEnd(&sg.end, closerNode.tc, mergeThread, c.inst.ft, c.env.FTStream, c.env.FTSeq)
	rt.maybeReapSplit(sg)
}

// maybeReapSplit discards a group's split-side state once the opener
// finished and every posted token was acknowledged. For a canceled call
// the reap also settles the group's debt to its enclosing group: the merge
// output that would have carried the outer frame onward will never exist
// (or was dropped before the outer merge consumed it), so the outer window
// slot is acknowledged here, letting nested cancellations unwind bottom-up.
// (If the paired merge managed to emit its output in the instant before
// cancellation, the outer frame can be acknowledged twice; gates clamp at
// zero and the call is abandoned, so the transient over-release is benign.)
func (rt *Runtime) maybeReapSplit(sg *splitGroup) {
	sg.mu.Lock()
	done := sg.done
	sg.mu.Unlock()
	if done && sg.gate.Quiescent() {
		if rt.groups.remove(sg.id) {
			if sg.outerAck != nil && rt.app.callAborted(sg.callID) {
				rt.ackConsumed(*sg.outerAck)
			}
		}
	}
}

// deliverToGroup buffers a token for (or starts) the merge/stream execution
// of its group on the destination thread.
func (rt *Runtime) deliverToGroup(inst *threadInstance, g *Flowgraph, node *GraphNode, env *envelope) {
	fr, ok := env.topFrame()
	if !ok {
		rt.app.fail(fmt.Errorf("dps: token reached %s %q with an empty frame stack", node.op.kind, node.op.name))
		return
	}
	mg := inst.mergeGroup(fr.GroupID, env.CallID)

	bt := bufferedToken{
		tok:        env.Token,
		lastWorker: env.LastWorker,
		creditNode: env.CreditNode,
		origin:     fr.Origin,
		groupID:    fr.GroupID,
		ftStream:   env.FTStream,
		ftSeq:      env.FTSeq,
	}
	mg.mu.Lock()
	if !mg.started {
		mg.started = true
		mg.mu.Unlock()
		inst.inflight.Add(1)
		inst.exec.Enqueue(workItem{inst: inst, g: g, node: node, env: env, bt: bt, mg: mg, collector: true})
		return
	}
	mg.buf.Push(bt)
	mg.cond.Broadcast()
	mg.mu.Unlock()
	// The token and accounting fields now live in bt; the wrapper is free.
	putEnvelope(env)
}

// ackConsumed notifies the split-side node that one token of a group has
// been consumed by the merge, releasing flow-control window space and
// load-balancing credits.
func (rt *Runtime) ackConsumed(bt bufferedToken) {
	atomic.AddInt64(&rt.stats.AcksSent, 1)
	m := ackMsg{GroupID: bt.groupID, Worker: bt.lastWorker, RouteNode: bt.creditNode}
	rt.lnk.sendAck(bt.origin.name, m)
}

// dropEnvelope discards a token of a canceled call. Its top frame is
// acknowledged exactly as if the paired merge had consumed it, so the
// split-side window slot and load-balancing credit release and the group
// can be reaped; the call's entry token (no frames yet) needs no ack.
func (rt *Runtime) dropEnvelope(env *envelope) {
	atomic.AddInt64(&rt.stats.TokensDropped, 1)
	if fr, ok := env.topFrame(); ok {
		rt.ackConsumed(bufferedToken{
			lastWorker: env.LastWorker,
			creditNode: env.CreditNode,
			origin:     fr.Origin,
			groupID:    fr.GroupID,
		})
	}
	putEnvelope(env)
}

// retireMergeGroup dismantles the merge-side state of a canceled call's
// group: buffered tokens are acknowledged (their window slots must not stay
// occupied) and the instance's group entry is removed. Idempotent — the
// collector unwind and a late group-end may both retire the same group.
func (rt *Runtime) retireMergeGroup(inst *threadInstance, mg *mergeGroup, groupID uint64) {
	mg.mu.Lock()
	var buf sched.Fifo[bufferedToken]
	buf, mg.buf = mg.buf, buf
	mg.mu.Unlock()
	for buf.Len() > 0 {
		atomic.AddInt64(&rt.stats.TokensDropped, 1)
		rt.ackConsumed(buf.Pop())
	}
	inst.mu.Lock()
	if inst.groups[groupID] == mg {
		delete(inst.groups, groupID)
	}
	inst.mu.Unlock()
}

// handleAck applies one consumption acknowledgement: one gate slot returns,
// the group may be reaped, and the charged leaf thread's credit is
// released.
func (rt *Runtime) handleAck(m ackMsg) {
	sg := rt.groups.lookup(m.GroupID)
	if sg == nil {
		return
	}
	sg.gate.Release()
	rt.maybeReapSplit(sg)
	if m.RouteNode >= 0 && m.RouteNode < len(sg.graph.nodes) {
		threads := sg.graph.nodes[m.RouteNode].tc.ThreadCount()
		rt.credit(sg.graph, m.RouteNode, threads).Release(m.Worker)
	}
}

// handleGroupEnd records a group's announced total on the merge-side state,
// waking the collector execution blocked in next. Group-ends of canceled
// calls retire the merge-side state instead of leaving state no collector
// will ever consume; a cancellation landing after the check below is
// settled by cancelCall's wakeBlocked sweep, which retires groups by their
// recorded call ID. Like tokens, group-ends go through the thread's
// placement machine once this node has participated in a live remap.
func (rt *Runtime) handleGroupEnd(m *groupEndMsg, src string, lane place.Lane) {
	node := m.Graph.nodes[m.Node]
	if rt.place.fastArrive() {
		rt.applyGroupEnd(node, m)
		rt.place.arrivals.Add(-1)
		return
	}
	key := place.Key{Collection: node.tc.Name(), Thread: m.Thread}
	rt.placeArrive(key, src, lane, &placeItem{ge: m, node: node})
}

// applyGroupEnd delivers a group-end to its resolved destination node's
// local merge-side state, past the placement machine. Sequenced
// announcements already processed are failover-replay duplicates and drop
// here, mirroring dispatchToken.
func (rt *Runtime) applyGroupEnd(node *GraphNode, m *groupEndMsg) {
	inst, err := rt.instance(node.tc, m.Thread)
	if err != nil {
		rt.failApp(err)
		return
	}
	if m.FTSeq > 0 && inst.ft != nil && !inst.ft.CheckIn(m.FTStream, m.FTSeq) {
		atomic.AddInt64(&rt.stats.DuplicatesDropped, 1)
		return
	}
	mg := inst.mergeGroup(m.GroupID, m.CallID)
	mg.mu.Lock()
	mg.total = m.Total
	mg.cond.Broadcast()
	mg.mu.Unlock()
	if rt.app.callAborted(m.CallID) {
		rt.retireMergeGroup(inst, mg, m.GroupID)
	}
}
