package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/core/sched"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Runtime is the per-node controller of the paper's §3: it sequences the
// program execution on one cluster node according to the flow graphs and
// thread collections, creates thread instances lazily, and composes the
// five engine layers:
//
//   - sched:   per-thread-instance work queues, FIFO execution tickets and
//     drainer handoff (internal/core/sched);
//   - flowctl: per-split-group flow-control gates and the load-balancing
//     credit trackers (internal/core/flowctl);
//   - groups:  split/merge/stream group lifecycle (groups.go);
//   - place:   epoch-versioned thread placement and the per-thread
//     live-remap state machine (internal/core/place, migrate.go);
//   - link:    envelope framing, buffer pooling and send/receive over
//     transport.Transport (link.go, wire.go, pool.go).
type Runtime struct {
	// stats is counted into with atomic.AddInt64 on its fields, never by a
	// plain write; Stats() snapshots it. First in the struct, which keeps
	// the fields 64-bit aligned on 32-bit platforms.
	stats Stats

	app     *App
	lnk     link
	name    string
	id      uint64 // the id the node is declared under (App.declareLocked)
	nodeIdx int

	sched  sched.Scheduler[workItem]
	groups groupTable
	window int // Config.Window: slots of every split group's gate (0: default)
	place  placeState

	// Fault-tolerance layer (nil / zero unless Config.Checkpoint is set):
	// ftNode sequences and retains graph-call entry posts originating on
	// this node; ftStore is the checkpoint store, used on the master node
	// only; dead marks this runtime's node as declared dead — its
	// in-process remnant keeps executing into the void but can no longer
	// send or fail the application.
	ftNode  *ft.State
	ftStore ft.Store
	dead    atomic.Bool

	// Observability (observe.go): ring buffers the spans of sampled calls
	// recorded on this node; qmu/qwait accumulate their dispatch-queue wait
	// times for /metrics. The unsampled hot path touches neither — every
	// recording site gates on the envelope's trace ID first.
	ring  *trace.Ring
	qmu   sync.Mutex
	qwait trace.Hist

	// threads and credits are read without a lock by every token; mu
	// serializes their rare writes (an instance created, installed or
	// retired; a credit tracker's first use), each of which republishes the
	// table.
	mu      sync.Mutex
	threads cowTable[instKey, *threadInstance]
	credits cowTable[creditKey, *flowctl.Credits]
}

// instKey identifies a thread instance by its collection's id.
type instKey struct {
	coll  uint64
	index int
}

// creditKey identifies a credit tracker by its graph's id and graph node.
type creditKey struct {
	graph uint64
	node  int
}

// threadInstance is one DPS thread: user state, the merge-side groups open
// on it, and its scheduling state (dispatch queue + FIFO execution lock)
// owned by the scheduler layer.
type threadInstance struct {
	rt    *Runtime
	tc    *ThreadCollection
	index int
	state any
	exec  sched.Instance[workItem]

	// inflight counts executions between enqueue and completion (including
	// ones parked inside blocking points); the migration quiesce waits for
	// it to reach zero.
	inflight atomic.Int64

	// ft is the instance's fault-tolerance state (outbound sequencing and
	// retention, inbound duplicate filter); nil unless Config.Checkpoint
	// is set. yielded counts executions parked inside a blocking point
	// after handing back the FIFO ticket — a checkpoint item must not
	// capture while one exists (the parked execution is mid-body).
	ft      *ft.State
	yielded atomic.Int64
	// ranCollector is set once the instance runs a merge/stream body and
	// never cleared: collector consumption order is not reproducible by
	// re-execution, so such an instance is permanently ineligible for
	// regenerative checkpoints (ft.State.SnapshotRegen).
	ranCollector atomic.Bool

	mu     sync.Mutex
	groups map[uint64]*mergeGroup
	// spareBuf is the emptied buffer array the last completed group handed
	// down (completeGroup), which the next group created here starts from.
	spareBuf []bufferedToken
}

// workItem is one queued execution: a token delivered to a leaf/split, or
// the first token of a group starting a merge/stream collector. The FIFO
// ticket is reserved by the scheduler at enqueue time, so queue order and
// lock grant order always agree.
type workItem struct {
	inst      *threadInstance
	g         *Flowgraph
	node      *GraphNode
	env       *envelope
	bt        bufferedToken
	mg        *mergeGroup
	collector bool
	// ckpt marks a checkpoint item (ftengine.go): it rides the instance's
	// dispatch queue so the capture serializes with operation executions.
	ckpt bool
}

func newRuntime(app *App, tr transport.Transport, idx int, id uint64) *Runtime {
	rt := &Runtime{
		app:     app,
		name:    tr.Local(),
		id:      id,
		nodeIdx: idx,
		window:  app.cfg.Window,
		ring:    trace.NewRing(0),
	}
	if app.ftOn {
		rt.ftNode = ft.NewState(ft.NodeStream(id))
	}
	rt.groups.init(idx)
	rt.lnk.init(rt, tr, &app.cfg)
	var idle func()
	if rt.lnk.ck != nil {
		// A drainer that corked frames lets them go when its queue runs dry.
		idle = rt.lnk.ck.Uncork
	}
	rt.sched.Init(rt.runItem, idle)
	return rt
}

// Name returns the cluster node name this runtime controls.
func (rt *Runtime) Name() string { return rt.name }

// instance returns (creating lazily) the local thread instance of tc with
// the given index, verifying the mapping places it on this node.
func (rt *Runtime) instance(tc *ThreadCollection, index int) (*threadInstance, error) {
	node, err := tc.NodeOf(index)
	if err != nil {
		return nil, err
	}
	if node != rt.name {
		return nil, fmt.Errorf("dps: thread %s[%d] is mapped to %q, not %q", tc.Name(), index, node, rt.name)
	}
	key := instKey{coll: tc.id, index: index}
	if inst := rt.threads.load()[key]; inst != nil {
		return inst, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if inst := rt.threads.load()[key]; inst != nil {
		return inst, nil
	}
	inst := &threadInstance{
		rt:     rt,
		tc:     tc,
		index:  index,
		state:  tc.newState(),
		groups: make(map[uint64]*mergeGroup),
	}
	if rt.app.ftOn {
		inst.ft = ft.NewState(ft.StreamOf(tc.id, index))
	}
	rt.sched.InitInstance(&inst.exec)
	rt.threads.set(key, inst)
	return inst, nil
}

// credit returns (creating presized to threads, if needed) the credit
// tracker of one graph node's collection.
func (rt *Runtime) credit(g *Flowgraph, node int, threads int) *flowctl.Credits {
	key := creditKey{graph: g.id, node: node}
	if ct := rt.credits.load()[key]; ct != nil {
		return ct
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ct := rt.credits.load()[key]; ct != nil {
		return ct
	}
	ct := flowctl.NewCredits(threads)
	rt.credits.set(key, ct)
	return ct
}

// routeThread returns the thread the route of g's node id picks for tok,
// the seq-th post of its execution, checked against the size of the node's
// collection. A fixed route (ToThread) is resolved from the Route alone;
// any other is handed the outstanding counts of the node's credit tracker,
// whose only reader it is.
func (rt *Runtime) routeThread(g *Flowgraph, id int, tok Token, seq int) (int, error) {
	n := g.nodes[id]
	count := n.tc.ThreadCount()
	if count == 0 {
		return 0, fmt.Errorf("collection %q is not mapped", n.tc.Name())
	}
	idx := n.route.thread
	if !n.route.fixed {
		ct := rt.credit(g, id, count)
		idx = n.route.pick(tok, RouteCtx{ThreadCount: count, Seq: seq, Outstanding: ct.OutstandingFunc()})
	}
	if idx < 0 || idx >= count {
		return 0, fmt.Errorf("route %q returned thread %d for collection %q of %d threads", n.route.Name(), idx, n.tc.Name(), count)
	}
	return idx, nil
}

// --- inbound traffic and failure hooks of the link layer -----------------

// deliverToken hands an envelope (token decoded) to its destination thread
// on this node; lane says whether its sender posted it here or a relay
// forwarded it. Tokens of canceled calls are dropped here, with their
// flow-control window slot and load-balancing credit released, so an
// abandoned call drains instead of wedging its split groups. Once this node
// has participated in a live remap, arrivals go through the thread's
// placement machine (migrate.go).
func (rt *Runtime) deliverToken(env *envelope, src string, lane place.Lane) {
	if rt.app.callAborted(env.CallID) {
		rt.dropEnvelope(env)
		return
	}
	g := env.Graph
	node := g.nodes[env.Node]
	if rt.place.fastArrive() {
		rt.dispatchToken(g, node, env)
		rt.place.arrivals.Add(-1)
		return
	}
	key := place.Key{Collection: node.tc.Name(), Thread: env.Thread}
	rt.placeArrive(key, src, lane, &placeItem{env: env, g: g, node: node})
}

// dispatchToken delivers an envelope to its (possibly lazily created) local
// thread instance, past the placement machine. Sequenced envelopes the
// instance has already processed — directly, or reflected through a
// restored checkpoint — are duplicates of a failover replay and are
// dropped without executing and without acknowledging (the original's
// acknowledgement already flowed).
//
// WHERE the duplicate filter records matters: for leaves and splits it
// runs at execution start (runSimple), under the same FIFO ticket that
// serializes state mutations and checkpoint items — a cursor recorded at
// dispatch could land in a checkpoint whose state does not yet reflect
// the still-queued token, and the torn record would cut the sender's log
// and shift every regenerated sequence number. Collector (merge/stream)
// tokens record here at delivery: their effect is the buffer insertion
// itself, and their receivers live on the master, which never restores.
func (rt *Runtime) dispatchToken(g *Flowgraph, node *GraphNode, env *envelope) {
	inst, err := rt.instance(node.tc, env.Thread)
	if err != nil {
		rt.failApp(err)
		return
	}
	switch node.op.kind {
	case KindLeaf, KindSplit:
		if env.TraceID != 0 {
			env.traceEnqNs = time.Now().UnixNano()
		}
		inst.inflight.Add(1)
		inst.exec.Enqueue(workItem{inst: inst, g: g, node: node, env: env})
	case KindMerge, KindStream:
		if env.FTSeq > 0 && inst.ft != nil && !inst.ft.CheckIn(env.FTStream, env.FTSeq) {
			atomic.AddInt64(&rt.stats.DuplicatesDropped, 1)
			putEnvelope(env)
			return
		}
		rt.deliverToGroup(inst, g, node, env)
	}
}

// deliverResult settles a graph call with its result on the call's origin
// node — the one place a completed call is counted, however the result
// travelled.
func (rt *Runtime) deliverResult(callID uint64, tok Token) {
	atomic.AddInt64(&rt.stats.CallsCompleted, 1)
	rt.app.completeCall(callID, CallResult{Value: tok})
}

// handleDeath takes a peer's (possibly another process's) notice that a node
// was declared dead: converge on the same recovery; the detector folds
// duplicate reports.
func (rt *Runtime) handleDeath(m deathMsg, src string) {
	rt.app.suspect(m.Node, fmt.Errorf("dps: node %q declared dead by %q", m.Node, src))
}

func (rt *Runtime) linkFail(err error) { rt.failApp(err) }

// linkDown reports whether traffic toward dst (or from this runtime at
// all) must be suppressed because a node has been declared dead. Retained
// copies of suppressed tokens replay during the failover.
func (rt *Runtime) linkDown(dst string) bool {
	return rt.dead.Load() || rt.app.ftDead.IsDead(dst)
}

// linkSuspect reports a transport send failure toward dst. It returns true
// when the fault-tolerance layer absorbs the failure (recovery underway;
// the sender drops the message, whose retained copy will replay) and false
// when it must surface as an application failure.
//
// A send can fail for reasons the transport interface cannot tell apart:
// the destination died, this node's own endpoint is gone (a crashed
// node's in-process remnant keeps executing for a while), or the link
// between the two is partitioned. A self-send disambiguates the second
// case — if our own endpoint rejects traffic, we are the dead node and
// must not blame the peer. For the third, the master is the authority:
// a node that cannot reach the master is the isolated one and reports
// itself, so a partition resolves the same way regardless of whose send
// fails first.
func (rt *Runtime) linkSuspect(dst string, err error) bool {
	if rt.dead.Load() {
		return true
	}
	if selfErr := rt.lnk.tr.Send(rt.name, []byte{msgPing}); selfErr != nil {
		return rt.app.suspect(rt.name, selfErr)
	}
	if dst == rt.app.MasterNode() && rt.name != dst {
		return rt.app.suspect(rt.name, fmt.Errorf("dps: node %q cannot reach the master: %w", rt.name, err))
	}
	return rt.app.suspect(dst, err)
}

// --- execution -----------------------------------------------------------

// runItem executes one queued item, reporting whether the caller still
// holds the drainer role afterwards. It is the scheduler layer's RunFunc.
func (rt *Runtime) runItem(it workItem, tk sched.Ticket, _ bool) bool {
	defer it.inst.inflight.Add(-1)
	if it.ckpt {
		rt.runCheckpoint(it, tk)
		return true // a checkpoint never blocks, so it never hands the role off
	}
	if it.collector {
		return rt.runCollector(it, tk)
	}
	return rt.runSimple(it, tk)
}

// runSimple executes a leaf or split operation body, reporting whether the
// calling goroutine still holds the drainer role afterwards.
func (rt *Runtime) runSimple(it workItem, tk sched.Ticket) (still bool) {
	inst, g, node, env := it.inst, it.g, it.node, it.env
	var c *Ctx
	var group *splitGroup
	if node.op.kind == KindSplit {
		// The group a split opens is allocated with its execution.
		x := new(struct {
			Ctx
			group splitGroup
		})
		c, group = &x.Ctx, &x.group
	} else {
		c = new(Ctx)
	}
	*c = Ctx{rt: rt, inst: inst, graph: g, node: node, env: env, in: env.Token, callID: env.CallID, drainer: true}
	defer func() { still = c.drainer }()
	tk.Wait()
	if env.TraceID != 0 {
		rt.traceQueueWait(env)
	}
	defer inst.exec.Unlock()
	defer rt.recoverOp(c)
	if env.FTSeq > 0 && inst.ft != nil && !inst.ft.CheckIn(env.FTStream, env.FTSeq) {
		// A failover-replay duplicate: the instance's state (directly, or
		// through its restored checkpoint) already reflects this token.
		// Recorded here, under the execution ticket, so cursors never run
		// ahead of the state a checkpoint item in the same queue captures.
		atomic.AddInt64(&rt.stats.DuplicatesDropped, 1)
		c.env = nil
		putEnvelope(env)
		return
	}
	if rt.app.callAborted(env.CallID) {
		// The call was canceled while this token sat in the dispatch
		// queue: drop it instead of running the operation.
		c.env = nil
		rt.dropEnvelope(env)
		return
	}

	if group != nil {
		c.sg = rt.openGroup(c, node.id, group)
	}
	var execNs int64
	if env.TraceID != 0 {
		execNs = time.Now().UnixNano()
	}
	node.op.run(c)
	if execNs != 0 {
		rt.traceSpan(env.TraceID, "execute", node.op.name, execNs, time.Now().UnixNano()-execNs)
	}
	rt.finishOpener(c)
	if !c.drainer {
		c.uncork() // the drainer role's frames wait for its idle step
	}
	if node.op.kind == KindLeaf && c.postSeq != 1 {
		panic(opError{fmt.Errorf("dps: leaf %q posted %d tokens; a leaf posts exactly one", node.op.name, c.postSeq)})
	}
	c.env = nil
	putEnvelope(env)
	return
}

// runCollector executes a merge or stream body for one group, fed by the
// group's buffer. It reports whether the calling goroutine still holds the
// drainer role afterwards.
func (rt *Runtime) runCollector(it workItem, tk sched.Ticket) (still bool) {
	inst, g, node, firstEnv, first, mg := it.inst, it.g, it.node, it.env, it.bt, it.mg
	inst.ranCollector.Store(true)
	c := &mg.exec
	*c = Ctx{rt: rt, inst: inst, graph: g, node: node, env: firstEnv, in: first.tok, callID: firstEnv.CallID, mg: mg, drainer: true}
	defer func() { still = c.drainer }()
	tk.Wait()
	defer inst.exec.Unlock()
	defer rt.recoverOp(c)
	if rt.app.callAborted(firstEnv.CallID) {
		// Canceled while queued: never start the collector. Acknowledge
		// the first token and retire the group's merge-side state.
		atomic.AddInt64(&rt.stats.TokensDropped, 1)
		rt.ackConsumed(first)
		rt.retireMergeGroup(inst, mg, first.groupID)
		c.env = nil
		putEnvelope(firstEnv)
		return
	}
	if node.op.kind == KindStream {
		c.sg = rt.openGroup(c, node.id, new(splitGroup))
	}
	// The first token counts as consumed when the execution starts.
	rt.ackConsumed(first)
	rt.ftConsumed(first, inst)
	mg.mu.Lock()
	mg.consumed++
	mg.mu.Unlock()

	var execNs int64
	if firstEnv.TraceID != 0 {
		execNs = time.Now().UnixNano()
	}
	node.op.run(c)
	if execNs != 0 {
		rt.traceSpan(firstEnv.TraceID, "execute", node.op.name, execNs, time.Now().UnixNano()-execNs)
	}

	// Drain-check: the operation must have consumed its whole group.
	mg.mu.Lock()
	complete := mg.total >= 0 && mg.consumed == mg.total
	mg.mu.Unlock()
	if !complete {
		panic(opError{fmt.Errorf("dps: %s %q returned before consuming its group (use next until it reports false)", node.op.kind, node.op.name)})
	}
	rt.finishOpener(c)
	if !c.drainer {
		c.uncork()
	}
	if node.op.kind == KindMerge && c.postSeq != 1 {
		panic(opError{fmt.Errorf("dps: merge %q posted %d tokens; a merge posts exactly one", node.op.name, c.postSeq)})
	}
	fr, _ := firstEnv.topFrame()
	inst.completeGroup(fr.GroupID, mg)
	c.env = nil
	putEnvelope(firstEnv)
	return
}

// wakeBlocked wakes every blocked wait on this node so operations observe
// an application failure or a call cancellation and unwind. Merge-side
// groups of canceled calls are retired here as well: a group whose
// collector never started (all its tokens dropped upstream) has no
// execution left to clean it up.
func (rt *Runtime) wakeBlocked() {
	for _, sg := range rt.groups.all() {
		sg.gate.Wake()
	}
	type groupRef struct {
		id uint64
		mg *mergeGroup
	}
	for _, inst := range rt.threads.load() {
		inst.mu.Lock()
		groups := make([]groupRef, 0, len(inst.groups))
		for id, mg := range inst.groups {
			groups = append(groups, groupRef{id: id, mg: mg})
		}
		inst.mu.Unlock()
		for _, gr := range groups {
			if rt.app.callAborted(gr.mg.callID) {
				rt.retireMergeGroup(inst, gr.mg, gr.id)
			}
			gr.mg.mu.Lock()
			gr.mg.cond.Broadcast()
			gr.mg.mu.Unlock()
		}
	}
}

// opError wraps runtime failures raised inside operation executions so the
// recovery handler can distinguish them from program bugs (both abort the
// application, but opErrors carry cleaner messages).
type opError struct{ err error }

func (rt *Runtime) recoverOp(c *Ctx) {
	r := recover()
	if r == nil {
		return
	}
	c.uncork()
	if rt.dead.Load() {
		// A crashed node's in-process remnant: its executions unwind
		// silently (their sends were suppressed; recovery re-executes the
		// work on a survivor from replayed inputs).
		return
	}
	g, node := c.graph, c.node
	if oe, ok := r.(opError); ok {
		// An engine-raised unwind of a canceled call is not an application
		// failure: release the execution's group accounting and keep the
		// application serving other calls.
		if rt.app.Err() == nil && rt.app.callDead(c.callID) {
			rt.cleanupCanceled(c)
			return
		}
		rt.app.fail(fmt.Errorf("graph %q, operation %q: %w", g.name, node.op.name, oe.err))
		return
	}
	rt.app.fail(fmt.Errorf("dps: panic in graph %q, operation %q: %v", g.name, node.op.name, r))
}

// cleanupCanceled unwinds one execution of a canceled call: the group it
// was collecting is retired (buffered tokens acknowledged so the split side
// releases window slots and credits), the group it opened is closed for
// reaping, a leaf's unforwarded input token is acknowledged, and the
// envelope returns to the pool. The application keeps running.
func (rt *Runtime) cleanupCanceled(c *Ctx) {
	if c.mg != nil && c.env != nil {
		if fr, ok := c.env.topFrame(); ok {
			rt.retireMergeGroup(c.inst, c.mg, fr.GroupID)
		}
	}
	if c.sg != nil {
		c.sg.mu.Lock()
		c.sg.done = true
		c.sg.mu.Unlock()
		rt.maybeReapSplit(c.sg)
	}
	if env := c.env; env != nil && c.mg == nil && c.sg == nil && c.postSeq == 0 {
		// A leaf unwound before forwarding its token: in normal operation
		// the forwarded output carries the frame to the merge, which acks
		// it. Release the input token's slot (and credit charge) directly,
		// exactly as if the token had been dropped before execution.
		c.env = nil
		rt.dropEnvelope(env)
	}
	if env := c.env; env != nil {
		c.env = nil
		putEnvelope(env)
	}
}
