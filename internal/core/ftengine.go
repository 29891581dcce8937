package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/core/sched"
)

// This file is the engine half of the fault-tolerance layer
// (internal/core/ft): periodic checkpoints of thread state, sender-side
// retention and replay of in-flight tokens, receiver-side duplicate
// suppression, and the recovery of a dead node's threads onto survivors.
// The layer is enabled by Config.Checkpoint; with it disabled none of these
// paths run and the wire traffic is byte-identical to the non-FT engine.
//
// The protocol, end to end:
//
//  1. sequence + log — every posted token (and group-end) is stamped with
//     a per-(sender stream, destination instance) sequence number and a
//     copy is retained in the sender's log. Streams are logical (the
//     sending thread instance, or the origin node for graph-call entry
//     tokens), so a re-execution after recovery regenerates identical
//     sequence numbers.
//
//  2. filter — each receiving instance remembers the highest sequence it
//     has processed per inbound stream. Transports deliver FIFO per
//     sender, so the processed set is a prefix and one counter is an
//     exact filter: anything at or below it is a duplicate and is dropped
//     without executing (and without acknowledging — the original's
//     acknowledgement already flowed).
//
//  3. checkpoint — on a timer, each instance enqueues a checkpoint work
//     item into its own dispatch queue. It runs under the instance's FIFO
//     execution ticket — the same serialization operations use — so the
//     captured state, cursors and log form one consistent point of the
//     instance's event order, with no separate quiesce. The record ships
//     to the store on the master node (msgCheckpoint); a commit truncates
//     every sender's log up to the cursors the checkpoint covers
//     (msgCut). Instances with open merge groups or executions parked
//     inside a blocking point skip the tick and retry on the next one.
//
//  4. detect — a death is reported by transport send errors of real
//     traffic (a rehome's own included), by a kernel heartbeat
//     (internal/kernel), or by FailNode. The first report wins; the rest
//     fold into it.
//
//  5. fail over — recoverNode rehomes every thread of the dead node onto
//     the survivors from its checkpoint (migrate.go, replayTo). Replayed
//     inputs the checkpoint already reflects are dropped by the filter;
//     fresh ones re-execute and regenerate the lost outputs with the
//     original sequence numbers.
//
// Exactly-once argument: an execution's effects are its state mutation and
// its posted tokens. State is restored to checkpoint C and inputs above
// C's cursors are re-executed exactly once (the filter drops the rest), so
// state converges to the pre-crash value for deterministic operations.
// Posted tokens either left the dead node before C (they are in C's log
// and are re-sent at restore) or are regenerated by re-execution with the
// sequence numbers C's counters dictate; receivers that already processed
// them drop the duplicates. Log truncation only ever covers sequences a
// committed checkpoint of the destination reflects (or that were consumed
// on the immortal master), so nothing needed by a future restore is
// dropped.
//
// Scope: the master node (first attached) hosts the checkpoint store, the
// pending-call table and the recovery coordinator; its death ends the
// application, exactly as the death of the paper's main-thread node would.
// Collectors (merges/streams) buffer open groups in volatile memory, so
// graphs should place them on the master — the repo's applications all do.
// Leaf and split threads recover anywhere. Operations must be
// deterministic functions of (state, input) for re-execution to converge.

// ftSender aliases the per-sender fault-tolerance state for the envelope
// field declared in token.go.
type ftSender = ft.State

// ftStart spins up the background goroutines of the fault-tolerance layer:
// the checkpoint ticker and the failover coordinator. It runs once, lazily,
// on the first graph call (and on the first explicit FailNode), so
// applications that never run a graph do not leak tickers.
func (app *App) ftStart() {
	app.ftStop = make(chan struct{})
	app.ftSuspects = make(chan string, 64)
	// Sequenced posts serialize per destination with the route locks, like
	// migrations: a post must not assign a sequence number under one
	// placement and send under another, and two executions of one instance
	// must not reorder a stream between stamping and sending.
	app.enableSlowRouting()
	go app.ftCoordinator()
	if app.cfg.Checkpoint > 0 {
		go app.ftCheckpointLoop()
	}
}

// ftStopAll terminates the layer's goroutines on Close.
func (app *App) ftStopAll() {
	if !app.ftOn {
		return
	}
	app.ftOnce.Do(app.ftStart) // ensure ftStop exists exactly once
	close(app.ftStop)
}

// --- sender side: sequencing and retention --------------------------------

// ftOutbound stamps and retains one outbound token. It runs under the
// sender's route lock for the destination key, which makes the
// (stamp, log, send) triple atomic per stream — the receiver's prefix
// filter depends on sequence order matching send order.
func (rt *Runtime) ftOutbound(env *envelope, coll string, thread int) {
	s := env.ftSender
	env.ftSender = nil
	if s == nil {
		// Forwarded or replayed envelope: its sequencing is fixed.
		return
	}
	dst := place.Key{Collection: coll, Thread: thread}
	inStream, inSeq := env.ftInStream, env.ftInSeq
	env.FTStream = ft.DerivedStream(s.Stream(), inStream)
	env.ftInStream = ft.Stream{}
	env.ftInSeq = 0
	env.FTSeq = s.NextOut(env.FTStream, dst)
	// The retained encoding IS the wire message, stamped and, for a sampled
	// envelope, traced, so the trace context survives retention and failover
	// replay re-sends it intact. The copy is sized once, from its header and
	// the codec's size pass, and allocated outside the wire pool: the
	// retention log owns it until a cut.
	var scratch [frameHeadCap]byte
	head := appendToken(scratch[:0], env, place.Direct, sendClock(env.TraceID))
	enc, err := rt.app.reg.Prepare(env.Token)
	if err != nil {
		panic(opError{fmt.Errorf("dps: cannot retain %T for replay: %w", env.Token, err)})
	}
	buf := enc.AppendTo(append(make([]byte, 0, len(head)+enc.Len()), head...))
	s.Append(ft.Entry{Stream: env.FTStream, Dst: dst, Seq: env.FTSeq, CallID: env.CallID,
		InStream: inStream, InSeq: inSeq, Kind: ft.EntryToken, Bytes: buf})
	// The retained encoding IS the wire message; let the link layer copy
	// it instead of serializing the token again.
	env.ftWire = buf
}

// ftOutboundGroupEnd stamps and retains a group-end announcement on the
// opener's derived stream, behind the group's tokens. The retained copy is
// the sequenced frame, built on the stack and copied once into an
// allocation of its length, outside the wire pool like ftOutbound's.
func (rt *Runtime) ftOutboundGroupEnd(m *groupEndMsg, s *ft.State, inStream ft.Stream, inSeq uint64, coll string, thread int) {
	if s == nil {
		return
	}
	dst := place.Key{Collection: coll, Thread: thread}
	m.FTStream = ft.DerivedStream(s.Stream(), inStream)
	m.FTSeq = s.NextOut(m.FTStream, dst)
	var scratch [frameHeadCap]byte
	frame := appendGroupEnd(scratch[:0], m, place.Direct)
	s.Append(ft.Entry{Stream: m.FTStream, Dst: dst, Seq: m.FTSeq, CallID: m.CallID,
		InStream: inStream, InSeq: inSeq, Kind: ft.EntryGroupEnd, Bytes: append(make([]byte, 0, len(frame)), frame...)})
}

// ftStateFor resolves the local owner of a sender: a thread instance's
// state, or the runtime's node-level state for graph-call entry streams. It
// returns nil when the sender is not hosted here (its instance migrated
// away, or the id names nothing this application declared).
func (rt *Runtime) ftStateFor(id uint64) *ft.State {
	d, thread, ok := rt.app.resolveSender(id)
	switch {
	case !ok:
		return nil
	case d.tc == nil:
		if d.rt == rt {
			return rt.ftNode
		}
		return nil
	}
	if inst := rt.lookupInstance(instKey{coll: d.tc.id, index: thread}); inst != nil {
		return inst.ft
	}
	return nil
}

// applyCut truncates the addressed sender log. A cut whose sender is not
// hosted here is stale (the sender moved on) and is dropped.
func (rt *Runtime) applyCut(m cutMsg) {
	if s := rt.ftStateFor(m.Stream.Sender); s != nil {
		s.Cut(m.Stream, place.Key{Collection: m.DstCollection, Thread: m.DstThread}, m.Seq)
	} else {
		atomic.AddInt64(&rt.stats.CutsStale, 1)
	}
}

// ftConsumed is the flow-control acknowledgement hook: a token consumed by
// a collector on the master node is durable immediately (the master never
// restores), so the sender's retained copy can be dropped without waiting
// for the next checkpoint — the consumption ack already identifies exactly
// what is safe to drop. Called alongside ackConsumed on the consuming node.
func (rt *Runtime) ftConsumed(bt bufferedToken, inst *threadInstance) {
	if !rt.app.ftOn || bt.ftSeq == 0 || rt.name != rt.app.MasterNode() {
		return
	}
	if node := rt.ftSenderNode(bt.ftStream.Sender); node != "" {
		rt.lnk.sendCut(node, cutMsg{Stream: bt.ftStream, DstCollection: inst.tc.Name(), DstThread: inst.index, Seq: bt.ftSeq})
	}
}

// ftSenderNode resolves the node currently hosting a sender, or "".
func (rt *Runtime) ftSenderNode(id uint64) string {
	d, thread, ok := rt.app.resolveSender(id)
	switch {
	case !ok:
		return ""
	case d.tc == nil:
		return d.rt.name
	}
	node, _ := d.tc.NodeOf(thread)
	return node
}

// resolveSender returns what a sender id names — a collection, or with tc
// nil the node rt — and its thread index; ok is false for an id nothing
// declared.
func (app *App) resolveSender(id uint64) (d declared, thread int, ok bool) {
	name, thread := ft.SplitSender(id)
	d = app.ids.load()[name]
	return d, thread, d.tc != nil || d.rt != nil && thread == 0
}

// nodeOf returns the node hosting a thread, or "" for an unknown one.
func (app *App) nodeOf(key place.Key) string {
	if tc, ok := app.Collection(key.Collection); ok {
		if node, err := tc.NodeOf(key.Thread); err == nil {
			return node
		}
	}
	return ""
}

// --- checkpointing --------------------------------------------------------

// ftCheckpointLoop periodically enqueues checkpoint work items on every
// live instance.
func (app *App) ftCheckpointLoop() {
	t := time.NewTicker(app.cfg.Checkpoint)
	defer t.Stop()
	for {
		select {
		case <-app.ftStop:
			return
		case <-t.C:
			for _, rt := range app.allRuntimes() {
				if !rt.dead.Load() {
					rt.enqueueCheckpoints()
				}
			}
		}
	}
}

// enqueueCheckpoints schedules one checkpoint item per eligible local
// instance. The item rides the instance's dispatch queue, so it serializes
// with operation executions like any other work.
func (rt *Runtime) enqueueCheckpoints() {
	for _, inst := range rt.threads.load() {
		if inst.ft == nil || !inst.tc.checkpointable() {
			continue
		}
		inst.inflight.Add(1)
		inst.exec.Enqueue(workItem{inst: inst, ckpt: true})
	}
}

// runCheckpoint captures one instance checkpoint from inside its execution
// order. Holding the FIFO ticket guarantees no operation of the instance
// is mid-body; the remaining hazards — open merge groups (their buffers
// are volatile) and executions parked inside a blocking point after
// yielding the ticket — skip the tick instead of capturing a torn state.
func (rt *Runtime) runCheckpoint(it workItem, tk sched.Ticket) {
	inst := it.inst
	tk.Wait()
	defer inst.exec.Unlock()
	if rt.dead.Load() || rt.app.Err() != nil {
		return
	}
	inst.mu.Lock()
	open := len(inst.groups)
	inst.mu.Unlock()
	if open > 0 || inst.yielded.Load() != 0 {
		return
	}
	var stateBytes []byte
	if stateMigrates(inst.tc.stateType) {
		b, err := rt.app.reg.Marshal(inst.state)
		if err != nil {
			rt.failApp(fmt.Errorf("dps: cannot checkpoint state of %s[%d]: %w", inst.tc.Name(), inst.index, err))
			return
		}
		stateBytes = b
	}
	// Stateless instances that never ran a collector are regenerable: their
	// executions are pure functions of each input, so a checkpoint can ship
	// rewound cursors instead of the retained log (SnapshotRegen) and the
	// checkpoint egress stops scaling with payload traffic. Stateful
	// instances must ship the log (re-execution from rewound cursors would
	// replay state mutations the snapshot already reflects), and collectors
	// must too (merge consumption order is not reproducible).
	var rec *ft.Record
	if !stateMigrates(inst.tc.stateType) && !inst.ranCollector.Load() {
		rec, _ = inst.ft.SnapshotRegen()
	}
	if rec == nil {
		rec = inst.ft.Snapshot()
	}
	rec.Key = place.Key{Collection: inst.tc.Name(), Thread: inst.index}
	rec.Seq = rt.app.ftCkptSeq.Add(1)
	rec.State = stateBytes
	atomic.AddInt64(&rt.stats.CheckpointsTaken, 1)
	atomic.AddInt64(&rt.stats.CheckpointBytes, int64(len(stateBytes)))
	rt.lnk.sendCheckpoint(rt.app.MasterNode(), rec)
}

// commitCheckpoint runs on the store node: the record is committed and, if
// it is the newest for its instance, every covered sender stream is told
// to truncate its log (checkpoint-driven GC).
func (rt *Runtime) commitCheckpoint(rec *ft.Record) {
	if !rt.ftStore.Commit(rec) {
		return
	}
	for stream, last := range rec.In {
		if node := rt.ftSenderNode(stream.Sender); node != "" {
			rt.lnk.sendCut(node, cutMsg{Stream: stream, DstCollection: rec.Key.Collection, DstThread: rec.Key.Thread, Seq: last})
		}
	}
}

// --- failure detection and recovery ---------------------------------------

// suspect reports a node failure into the fault-tolerance layer. It
// reports whether the failure was absorbed (true: recovery is underway and
// the caller must not fail the application).
func (app *App) suspect(node string, err error) bool {
	if !app.ftOn || node == app.MasterNode() {
		// No fault tolerance, or the unrecoverable master: surface the error.
		return false
	}
	app.ftOnce.Do(app.ftStart)
	if app.ftDead.IsDead(node) {
		return true
	}
	app.ftReported.Store(node, struct{}{})
	select {
	case app.ftSuspects <- node:
	default:
		// The coordinator is busy and the queue is full; the next failed
		// send re-reports.
	}
	return true
}

// died returns an error naming node's death once it has been reported
// (suspect, FailNode), and nil before. A report precedes the node's
// recovery, which may still be queued behind migrateMu: a rehome that
// depends on the node gives up on it instead of waiting for a state that
// will never arrive.
func (app *App) died(node string) error {
	if _, ok := app.ftReported.Load(node); ok {
		return fmt.Errorf("node %q died", node)
	}
	return nil
}

// ftCoordinator serializes failovers on one goroutine, so a burst of
// suspect reports for one death runs a single recovery.
func (app *App) ftCoordinator() {
	for {
		select {
		case <-app.ftStop:
			return
		case node := <-app.ftSuspects:
			app.recoverNode(node)
		}
	}
}

// FailNode declares a cluster node dead and synchronously recovers its
// threads onto the surviving nodes: placements flip, the newest committed
// checkpoints restore on the survivors, and retained in-flight tokens are
// replayed with duplicates suppressed, so executing calls complete with
// exactly-once semantics. It is the entry point for external failure
// detectors (kernel heartbeats, deployment tooling) and for fault
// injection in tests; the engine's own detectors converge on the same
// path. Fault tolerance (Config.Checkpoint) must be enabled.
func (app *App) FailNode(node string) error {
	if !app.ftOn {
		return fmt.Errorf("dps: fault tolerance is not enabled (set Config.Checkpoint)")
	}
	if node == app.MasterNode() {
		return fmt.Errorf("dps: node %q hosts the checkpoint store and recovery coordinator; its death is unrecoverable", node)
	}
	app.ftOnce.Do(app.ftStart)
	return app.recoverNode(node)
}

// liveRuntimes lists the runtimes of the nodes not declared dead, in
// attachment order.
func (app *App) liveRuntimes() []*Runtime {
	var out []*Runtime
	for _, rt := range app.allRuntimes() {
		if !app.ftDead.IsDead(rt.name) {
			out = append(out, rt)
		}
	}
	return out
}

// allCollections snapshots the registered collections.
func (app *App) allCollections() []*ThreadCollection {
	app.mu.Lock()
	defer app.mu.Unlock()
	out := make([]*ThreadCollection, 0, len(app.collections))
	for _, tc := range app.collections {
		out = append(out, tc)
	}
	return out
}

// recoverNode declares a reported node dead and rehomes every thread placed
// on it onto the survivors, round-robin, from their checkpoints (see
// migrate.go). The first report of a death recovers it; later ones return
// nil. An error fails the application: the node is marked dead but its
// threads were not restored, so traffic toward it is suppressed and nothing
// will replay — not a recoverable state.
func (app *App) recoverNode(dead string) (err error) {
	app.ftReported.Store(dead, struct{}{})
	app.migrateMu.Lock()
	defer app.migrateMu.Unlock()
	if app.closed.Load() {
		return nil // shutdown traffic is not a node death
	}
	if !app.ftDead.MarkDead(dead) {
		return nil // a concurrent report already recovered this death
	}
	defer func() {
		if err != nil && app.Err() == nil {
			app.fail(fmt.Errorf("dps: failover of node %q: %w", dead, err))
		}
	}()
	if rtDead, ok := app.runtime(dead); ok {
		rtDead.dead.Store(true)
	}
	survivors := app.liveRuntimes()
	master := survivors[0] // never declared dead: suspect and FailNode refuse it
	// Tell every peer (and process) about the death; in-process receivers
	// deduplicate through the detector.
	for _, rt := range survivors[1:] {
		master.lnk.sendDeath(rt.name, deathMsg{Node: dead})
	}
	var moves []move
	for _, tc := range app.allCollections() {
		_, nodes := tc.place.Snapshot()
		for i, n := range nodes {
			if n == dead {
				to := survivors[len(moves)%len(survivors)].name
				moves = append(moves, move{tc: tc, key: place.Key{Collection: tc.Name(), Thread: i}, from: dead, to: to})
			}
		}
	}
	if err := app.rehome(context.Background(), moves, checkpoint); err != nil {
		return err
	}
	atomic.AddInt64(&master.stats.FailoversCompleted, 1)
	for _, mv := range moves {
		mv.tc.notifyRecover(mv.key.Thread, dead, mv.to)
	}
	return nil
}

// replayTo is a checkpoint rehome's flip step for one thread, run by the
// master under every live runtime's route lock for it, so no fresh post can
// overtake the replayed stream on any sender. A relay an earlier live move
// left forwarding toward the dead node follows the thread. The master then
// re-sends every retained entry itself, merged in call order
// (mergeReplayEntries) on its one FIFO channel to the new owner — separate
// senders' channels could not keep that order — and the checkpoint (the
// newest committed one, or an empty record: replay then rebuilds the thread
// from its first token) follows on the SAME channel, so every entry is
// buffered at the new owner when it installs this channel first.
func (rt *Runtime) replayTo(rts []*Runtime, key place.Key, to string, epoch uint64) {
	for _, r := range rts {
		r.placeThread(key).Retarget(to)
	}
	for _, e := range mergeReplayEntries(rts, key) {
		rt.resendEntry(e, to)
	}
	rec := rt.ftStore.Latest(key)
	if rec == nil {
		rec = &ft.Record{Key: key}
	}
	rt.lnk.sendRehome(to, &rehomeMsg{Key: key, Epoch: epoch, State: rec.State, Rec: rec, Replay: true})
}

// mergeReplayEntries gathers every live runtime's retained entries
// destined for key and merges them into one replay sequence: entries of
// one derived stream keep their order (sequence order — a hard correctness
// condition for the receiver's prefix filter), and across streams the
// entry with the numerically earliest call ID goes next. Call IDs increase
// with registration order, so for non-overlapping calls the merge
// reconstructs the inter-call causality the original run enforced through
// its result barriers; concurrent calls had no cross-stream order to
// preserve in the first place. Runs under the route locks of key, so the
// logs are stable.
func mergeReplayEntries(live []*Runtime, key place.Key) []ft.Entry {
	var groups [][]ft.Entry
	for _, rt := range live {
		states := []*ft.State{rt.ftNode}
		for _, inst := range rt.threads.load() {
			if inst.ft != nil {
				states = append(states, inst.ft)
			}
		}
		perStream := make(map[ft.Stream][]ft.Entry)
		var order []ft.Stream
		for _, s := range states {
			if s == nil {
				continue
			}
			for _, e := range s.EntriesTo(key) {
				if _, ok := perStream[e.Stream]; !ok {
					order = append(order, e.Stream)
				}
				perStream[e.Stream] = append(perStream[e.Stream], e)
			}
		}
		for _, st := range order {
			groups = append(groups, perStream[st])
		}
	}
	idx := make([]int, len(groups))
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]ft.Entry, 0, total)
	for len(out) < total {
		best := -1
		for gi := range groups {
			if idx[gi] >= len(groups[gi]) {
				continue
			}
			if best < 0 || callIDBefore(groups[gi][idx[gi]].CallID, groups[best][idx[best]].CallID) {
				best = gi
			}
		}
		out = append(out, groups[best][idx[best]])
		idx[best]++
	}
	return out
}

// callIDBefore orders call IDs as sequence numbers (IDs start at a random
// 64-bit point per application and increment, so plain < breaks at the
// wrap).
func callIDBefore(a, b uint64) bool { return int64(a-b) < 0 }

// resendEntry decodes one retained entry and re-sends it to the given
// node. Send failures feed the detector like any other traffic.
func (rt *Runtime) resendEntry(e ft.Entry, to string) {
	if rt.app.callAborted(e.CallID) {
		return
	}
	defer recoverOpError(rt.failApp)
	switch e.Kind {
	case ft.EntryToken:
		// The retained frame is stamped and, when sampled, traced
		// (ftOutbound); the re-send below frames it with a fresh send clock.
		env, _, err := decodeToken(e.Bytes, rt.app.ids.load())
		if err != nil {
			rt.failApp(fmt.Errorf("dps: corrupt retained token: %w", err))
			return
		}
		tok, _, err := rt.app.reg.Unmarshal(env.Payload)
		if err != nil {
			putEnvelope(env)
			rt.failApp(fmt.Errorf("dps: cannot deserialize retained token: %w", err))
			return
		}
		env.Token = tok
		env.Payload = nil // aliases e.Bytes, which the log still owns
		if env.TraceID != 0 {
			rt.traceSpan(env.TraceID, "replay", e.Dst.Collection, time.Now().UnixNano(), 0)
		}
		atomic.AddInt64(&rt.stats.TokensReplayed, 1)
		defer putEnvelope(env) // sendToken borrows it
		rt.lnk.sendToken(env, to, place.Direct, txSend)
	case ft.EntryGroupEnd:
		m, err := decodeGroupEnd(e.Bytes, rt.app.ids.load())
		if err != nil {
			rt.failApp(fmt.Errorf("dps: corrupt retained group-end: %w", err))
			return
		}
		atomic.AddInt64(&rt.stats.TokensReplayed, 1)
		rt.lnk.sendGroupEnd(to, m, place.Direct)
	}
}

// failApp records an application failure unless this runtime has been
// declared dead: a crashed node's in-process remnant (executions that were
// mid-flight when the transport died) must not take the surviving
// application down with its own confusion.
func (rt *Runtime) failApp(err error) {
	if rt.dead.Load() {
		return
	}
	rt.app.fail(err)
}
