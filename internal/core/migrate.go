package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// This file is the engine half of the placement layer (internal/core/place):
// rehome, the one protocol by which a thread changes owner while flow graphs
// execute, for a live remap (Collection.Remap) and a failover (ftengine.go)
// alike. A node's view of one thread's move is one place.Thread; this file
// acts on its verdicts and carries the state. App.rehome runs under
// migrateMu, and where the state comes from — its source — is the only fork:
//
//   - live: the old owner holds the thread's arrivals, waits for the
//     instance to fall idle (arrivals of merge groups already open pass the
//     hold, so the collector can finish) and captures it;
//   - checkpoint: the old owner is dead; the master holds the newest
//     committed checkpoint, and the senders' logs what came after it.
//
// Then every target opens its install buffer, and each thread's placement
// flips one epoch under every live runtime's route lock for the thread, so
// no post straddles the flip. A live flip sends a closing fence down each
// sender's old channel, behind its stale tokens; the new owner gates a
// sender's direct tokens until that fence has come through the old owner,
// so per-instance FIFO order survives. A dead owner forwards nothing, so a
// checkpoint flip cuts no stream: it retargets old relays and replays the
// retained entries. The state ships (msgMigrate from the old owner, which
// then forwards what it held and any later stale traffic; msgReplay from the
// master), the target installs it (installRehomed), and rehome awaits every
// install — or gives up once a node the move depends on is reported dead,
// whose failover then re-places the thread from its checkpoint.
//
// Flow-control accounting needs no migration: window acks route to the
// frame's origin node (split-side group state stays put) and forwarded
// envelopes keep their LastWorker/CreditNode charge, so acknowledgements
// release the same window slots and credits as before the move.

// placeItem is one arrival as the placement machine stores it: a token
// envelope (with its resolved graph node), a group-end, or a fence.
type placeItem struct {
	env   *envelope
	g     *Flowgraph
	node  *GraphNode
	ge    *groupEndMsg
	fence *fenceMsg
}

// placeState is a runtime's migration bookkeeping. The zero value is ready;
// until this node first takes part in a move the receive paths consult only
// the sticky active flag (see fastArrive).
type placeState struct {
	// fastRoutes counts this runtime's posts inside the pre-migration routing
	// fast path (see routeFast) and arrivals its deliveries inside the
	// no-remap fast path (see fastArrive). Posting goroutines write the one,
	// receiving goroutines the other, on every token: each gets a cache line
	// of its own, and the read-mostly active flag stays off both.
	fastRoutes atomic.Int64
	_          [56]byte
	arrivals   atomic.Int64
	_          [56]byte
	active     atomic.Int32

	mu      sync.Mutex
	threads map[place.Key]*place.Thread

	routeMu    sync.Mutex
	routeLocks map[place.Key]*sync.Mutex
}

// --- sender side: fenced routing ----------------------------------------

// routeToken resolves the node hosting tc[thread] and sends env there. Once
// any migration has started in the application, resolve+send serialize per
// destination thread with the coordinator's fence emission, so no post can
// straddle a placement flip (resolving the old owner but sending after the
// closing fence). Failures propagate as opError panics, like sendToken; tx
// and the result are sendToken's.
func (rt *Runtime) routeToken(env *envelope, tc *ThreadCollection, thread int, tx txMode) (corked bool) {
	if rt.routeFast() {
		defer rt.routeFastDone()
		target, err := tc.NodeOf(thread)
		if err != nil {
			panic(opError{err})
		}
		return rt.lnk.sendToken(env, target, place.Direct, tx)
	}
	mu := rt.routeLock(place.Key{Collection: tc.Name(), Thread: thread})
	mu.Lock()
	defer mu.Unlock()
	target, err := tc.NodeOf(thread)
	if err != nil {
		panic(opError{err})
	}
	if rt.app.ftOn {
		// Stamp, retain and send atomically per destination: the receiver's
		// duplicate filter needs sequence order to match send order.
		rt.ftOutbound(env, tc.Name(), thread)
	}
	return rt.lnk.sendToken(env, target, place.Direct, tx)
}

// routeGroupEnd is routeToken for group-end announcements; sender is the
// opener instance's fault-tolerance state and inStream/inSeq identify the
// opener's input (all zero with the layer off).
func (rt *Runtime) routeGroupEnd(m *groupEndMsg, tc *ThreadCollection, thread int, sender *ft.State, inStream ft.Stream, inSeq uint64) {
	if rt.routeFast() {
		defer rt.routeFastDone()
		target, err := tc.NodeOf(thread)
		if err != nil {
			panic(opError{err})
		}
		rt.lnk.sendGroupEnd(target, m, place.Direct)
		return
	}
	mu := rt.routeLock(place.Key{Collection: tc.Name(), Thread: thread})
	mu.Lock()
	defer mu.Unlock()
	target, err := tc.NodeOf(thread)
	if err != nil {
		panic(opError{err})
	}
	if rt.app.ftOn {
		rt.ftOutboundGroupEnd(m, sender, inStream, inSeq, tc.Name(), thread)
	}
	rt.lnk.sendGroupEnd(target, m, place.Direct)
}

// routeSafe is routeToken for non-operation goroutines (graph calls),
// converting the panic-based error propagation into an error return.
func (rt *Runtime) routeSafe(env *envelope, tc *ThreadCollection, thread int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if oe, ok := r.(opError); ok {
				err = oe.err
				return
			}
			panic(r)
		}
	}()
	rt.routeToken(env, tc, thread, txSend)
	return nil
}

// routeLock returns this runtime's per-destination-thread route mutex,
// creating it on first use (slow path only — the fast path never gets here).
func (rt *Runtime) routeLock(key place.Key) *sync.Mutex {
	ps := &rt.place
	ps.routeMu.Lock()
	defer ps.routeMu.Unlock()
	if ps.routeLocks == nil {
		ps.routeLocks = make(map[place.Key]*sync.Mutex)
	}
	mu, ok := ps.routeLocks[key]
	if !ok {
		mu = new(sync.Mutex)
		ps.routeLocks[key] = mu
	}
	return mu
}

// routeFast reports whether the lock-free routing fast path may be used;
// when it reports true the caller must invoke routeFastDone after sending.
// The in-flight count lives on the posting runtime — not the App — so the
// no-migration hot path touches one per-node cache line plus a read-only
// global flag instead of contending app-wide. The counter makes the
// one-time switchover sound: the coordinator flips migrActive and waits
// out posts already inside the fast path on every runtime, after which
// every post serializes on the route locks.
func (rt *Runtime) routeFast() bool {
	rt.place.fastRoutes.Add(1)
	if rt.app.migrActive.Load() == 0 && !rt.app.ftOn {
		// Fault tolerance serializes posts like migrations do (sequence
		// stamping must be atomic with the send, per destination).
		return true
	}
	rt.place.fastRoutes.Add(-1)
	return false
}

func (rt *Runtime) routeFastDone() { rt.place.fastRoutes.Add(-1) }

// enableSlowRouting permanently switches the application's posts onto the
// per-key route locks, waiting out posts still running the fast path.
func (app *App) enableSlowRouting() {
	if app.migrActive.Swap(1) != 0 {
		return
	}
	for _, rt := range app.allRuntimes() {
		for rt.place.fastRoutes.Load() != 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// --- receiver side: the per-thread placement machine ----------------------

// fastArrive reports whether this node has never taken part in a move, in
// which case the caller dispatches the arrival itself and then decrements
// arrivals. It is the receive-side twin of routeFast: the arrival announces
// itself before reading the flag, activate raises the flag before reading
// the count, so a hold can never begin between an arrival's decision to go
// straight to the instance and its registration there.
func (ps *placeState) fastArrive() bool {
	ps.arrivals.Add(1)
	if ps.active.Load() == 0 {
		return true
	}
	ps.arrivals.Add(-1)
	return false
}

// activate switches this node's arrivals onto the placement machines for
// good, waiting out those still inside the fast path.
func (ps *placeState) activate() {
	ps.active.Store(1)
	for ps.arrivals.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// placeThread returns this node's placement machine for key, creating it
// (serving, nothing in progress) on first use.
func (rt *Runtime) placeThread(key place.Key) *place.Thread {
	ps := &rt.place
	ps.mu.Lock()
	defer ps.mu.Unlock()
	th := ps.threads[key]
	if th == nil {
		if ps.threads == nil {
			ps.threads = make(map[place.Key]*place.Thread)
		}
		th = place.NewThread(rt.holdPassThrough)
		ps.threads[key] = th
	}
	return th
}

// placeArrive runs one token or group-end through its thread's placement
// machine and acts on the verdict.
func (rt *Runtime) placeArrive(key place.Key, src string, lane place.Lane, it *placeItem) {
	th := rt.placeThread(key)
	switch v, target := th.Arrive(src, lane, it); v {
	case place.Deliver:
		rt.deliverDirect(it)
		th.Done()
	case place.Forward:
		rt.forwardItem(it, target)
	}
}

// deliverFence runs one arriving fence through its thread's machine: onward
// when the thread moved away, with the held stream when it belongs to the
// move quiescing here, and into its sender's gate otherwise — which may
// release that sender's buffered direct tokens.
func (rt *Runtime) deliverFence(m *fenceMsg) {
	th := rt.placeThread(place.Key{Collection: m.Collection, Thread: m.Thread})
	it := &placeItem{fence: m}
	v, target, batch := th.Fence(m.Src, m.Epoch, it)
	if v == place.Forward {
		rt.forwardItem(it, target)
	}
	rt.drain(th, batch)
}

// drain delivers a batch the machine released, and whatever queues behind
// it, in order; the machine buffers every other delivery meanwhile.
func (rt *Runtime) drain(th *place.Thread, batch []any) {
	for batch != nil {
		for _, it := range batch {
			rt.deliverDirect(it.(*placeItem))
		}
		batch = th.Next(len(batch))
	}
}

// holdPassThrough reports whether an arrival a hold would keep must instead
// pass through: tokens and group-ends of a merge group already open on the
// local instance are needed for its collector to finish (holding them would
// deadlock the quiesce against its own drain condition).
func (rt *Runtime) holdPassThrough(item any) bool {
	it := item.(*placeItem)
	var thread int
	var groupID uint64
	if it.ge != nil {
		thread, groupID = it.ge.Thread, it.ge.GroupID
	} else if fr, ok := it.env.topFrame(); ok && (it.node.op.kind == KindMerge || it.node.op.kind == KindStream) {
		thread, groupID = it.env.Thread, fr.GroupID
	} else {
		return false
	}
	inst := rt.lookupInstance(instKey{coll: it.node.tc.id, index: thread})
	if inst == nil {
		return false
	}
	inst.mu.Lock()
	_, open := inst.groups[groupID]
	inst.mu.Unlock()
	return open
}

// forwardItem re-sends an arrival to the instance's current owner on the
// forwarded lane. A send failure goes to the failure detector, and fails the
// application unless it absorbs it.
func (rt *Runtime) forwardItem(it *placeItem, target string) {
	defer recoverOpError(rt.app.fail)
	switch {
	case it.env != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		if it.env.TraceID != 0 {
			rt.traceSpan(it.env.TraceID, "forward", target, time.Now().UnixNano(), 0)
		}
		defer putEnvelope(it.env) // sendToken borrows it
		rt.lnk.sendToken(it.env, target, place.Forwarded, txSend)
	case it.ge != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		rt.lnk.sendGroupEnd(target, it.ge, place.Forwarded)
	case it.fence != nil:
		rt.lnk.sendFence(target, it.fence)
	}
}

// recoverOpError, deferred, turns an engine-raised unwind (a failed send)
// outside any operation execution into a call of fail.
func recoverOpError(fail func(error)) {
	if r := recover(); r != nil {
		oe, ok := r.(opError)
		if !ok {
			panic(r)
		}
		fail(oe.err)
	}
}

// deliverDirect dispatches a token or group-end the machine has cleared to
// the local instance.
func (rt *Runtime) deliverDirect(it *placeItem) {
	if it.env != nil {
		rt.dispatchToken(it.g, it.node, it.env)
	} else {
		rt.applyGroupEnd(it.node, it.ge)
	}
}

// --- old-owner side: hold, quiesce, capture -----------------------------

// instanceIdle reports whether the quiescing instance has fully drained: the
// placement machine has nothing in flight toward it and no fence handshake
// outstanding, no execution is queued or running, and no merge group is
// open.
func (rt *Runtime) instanceIdle(th *place.Thread, tc *ThreadCollection, thread int) bool {
	// Machine first: every delivery it cleared is registered in the
	// instance's in-flight count before the machine stops counting it.
	if !th.Quiesced() {
		return false
	}
	inst := rt.lookupInstance(instKey{coll: tc.id, index: thread})
	if inst == nil {
		return true
	}
	if inst.inflight.Load() != 0 {
		return false
	}
	// Read groups after inflight: a finishing collector deletes its group
	// before its in-flight count drops, so observing 0 then 0 is a
	// consistent idle snapshot (new work is held by the machine).
	inst.mu.Lock()
	n := len(inst.groups)
	inst.mu.Unlock()
	return n == 0
}

// waitQuiesce polls until the instance is idle, the context expires, the
// application fails or this node is reported dead.
func (rt *Runtime) waitQuiesce(ctx context.Context, th *place.Thread, tc *ThreadCollection, key place.Key) error {
	delay := 50 * time.Microsecond
	for {
		if rt.instanceIdle(th, tc, key.Thread) {
			return nil
		}
		if err := rt.app.Err(); err != nil {
			return err
		}
		if err := rt.app.died(rt.name); err != nil {
			return fmt.Errorf("dps: quiescing thread %s: %w", key, err)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dps: quiescing thread %s (%d arrivals held): %w", key, th.HeldLen(), err)
		}
		time.Sleep(delay)
		if delay < 2*time.Millisecond {
			delay *= 2
		}
	}
}

// captureState serializes and removes the quiesced local instance. A nil
// State means the new owner starts from a fresh zero state (stateless
// collection, or the instance was never touched here). With fault
// tolerance enabled the instance's sequencing cursors and retention log
// travel too (Rec), so the re-homed instance continues its streams instead
// of restarting them — a restart would collide with every receiver's
// duplicate filter.
func (rt *Runtime) captureState(tc *ThreadCollection, thread int) (*rehomeMsg, error) {
	m := &rehomeMsg{Key: place.Key{Collection: tc.Name(), Thread: thread}}
	ik := instKey{coll: tc.id, index: thread}
	inst := rt.lookupInstance(ik)
	if inst == nil {
		return m, nil
	}
	if stateMigrates(tc.stateType) {
		var err error
		if m.State, err = rt.app.reg.Marshal(inst.state); err != nil {
			return nil, fmt.Errorf("dps: cannot serialize state of %s[%d]: %w", tc.Name(), thread, err)
		}
	}
	if inst.ft != nil {
		m.Rec = inst.ft.Snapshot()
	}
	rt.mu.Lock()
	rt.threads.delete(ik)
	rt.mu.Unlock()
	return m, nil
}

// lookupInstance returns the local instance, or nil, without creating it.
func (rt *Runtime) lookupInstance(ik instKey) *threadInstance {
	return rt.threads.load()[ik]
}

// --- new-owner side: install ----------------------------------------------

// restoreInstance builds a thread instance from shipped bytes: a live
// capture's state or a checkpoint's (empty: a fresh zero state), and the
// fault-tolerance record that continues its streams.
func (rt *Runtime) restoreInstance(key place.Key, state []byte, rec *ft.Record) (*threadInstance, error) {
	tc, ok := rt.app.Collection(key.Collection)
	if !ok {
		return nil, fmt.Errorf("unknown collection %q", key.Collection)
	}
	inst := &threadInstance{
		rt:     rt,
		tc:     tc,
		index:  key.Thread,
		state:  tc.newState(),
		groups: make(map[uint64]*mergeGroup),
	}
	if len(state) > 0 {
		v, _, err := rt.app.reg.Unmarshal(state)
		if err != nil {
			return nil, fmt.Errorf("cannot deserialize state: %w", err)
		}
		if want := reflect.PointerTo(tc.stateType); reflect.TypeOf(v) != want {
			return nil, fmt.Errorf("state decoded as %T, want %s", v, want)
		}
		inst.state = v
	}
	if rt.app.ftOn {
		inst.ft = ft.NewState(ft.StreamOf(tc.id, key.Thread))
		if rec != nil {
			inst.ft.Restore(rec)
		}
	}
	rt.sched.InitInstance(&inst.exec)
	return inst, nil
}

// installRehomed activates a thread that node src shipped here, from either
// source. A checkpoint's retained log — the dead owner's outputs that were
// not yet durable — is re-sent first; the machine is still expecting, so
// nothing reaches the instance, and it re-executes nothing, before the log
// is out. Install then admits the arrivals that waited, src's channel
// first: channel FIFO put everything src sent toward the thread ahead of
// the state there (a checkpoint's replayed entries, in merge order), while
// another sender's fresh post travels its own channel and must not overtake
// that sender's replayed entries.
func (rt *Runtime) installRehomed(m *rehomeMsg, src string) {
	inst, err := rt.restoreInstance(m.Key, m.State, m.Rec)
	if err != nil {
		rt.failApp(fmt.Errorf("dps: rehoming %s: %w", m.Key, err))
		return
	}
	if m.Replay {
		for _, e := range m.Rec.Log {
			if node := rt.app.nodeOf(e.Dst); node != "" {
				rt.resendEntry(e, node)
			}
		}
	}
	ik := instKey{coll: inst.tc.id, index: inst.index}
	rt.mu.Lock()
	_, exists := rt.threads.load()[ik]
	if !exists {
		rt.threads.set(ik, inst)
	}
	rt.mu.Unlock()
	if exists {
		rt.failApp(fmt.Errorf("dps: rehoming %s: already instantiated on %q", m.Key, rt.name))
		return
	}
	th := rt.placeThread(m.Key)
	rt.drain(th, th.Install(m.Epoch, m.Fences, src))
}

// --- coordinator ---------------------------------------------------------

// stateMigrates reports whether a collection's state type carries data that
// must travel with a migrating thread. Non-struct state (legal for local
// execution) always carries data; validateMigratableState rejects it before
// any migration starts.
func stateMigrates(st reflect.Type) bool {
	if st == nil {
		return false
	}
	if st.Kind() != reflect.Struct {
		return true
	}
	return st.NumField() > 0
}

// validateMigratableState rejects state types a live migration would
// silently corrupt: unexported fields are invisible to the serializer, and
// unregistered types cannot travel at all.
func (app *App) validateMigratableState(tc *ThreadCollection) error {
	st := tc.stateType
	if !stateMigrates(st) {
		return nil
	}
	if st.Kind() != reflect.Struct {
		return fmt.Errorf("dps: collection %q: state type %s is not a struct; live migration needs a registered struct state (or struct{})", tc.Name(), st)
	}
	for i := 0; i < st.NumField(); i++ {
		if !st.Field(i).IsExported() {
			return fmt.Errorf("dps: collection %q: state type %s has unexported field %s; live migration would lose it", tc.Name(), st, st.Field(i).Name)
		}
	}
	if _, err := app.reg.IDOf(reflect.New(st).Interface()); err != nil {
		return fmt.Errorf("dps: collection %q: state type is not registered for serialization: %w", tc.Name(), err)
	}
	return nil
}

// rehomeSource says where a rehomed thread's state comes from: the one
// place a live remap and a failover differ (see the file comment).
type rehomeSource uint8

const (
	live       rehomeSource = iota // the old owner captures the instance and ships it
	checkpoint                     // the old owner is dead; the master ships its newest checkpoint
)

// move is one thread a rehome re-places.
type move struct {
	tc        *ThreadCollection
	key       place.Key
	from, to  string
	installed <-chan struct{}

	// The live source's old owner, its machine (holding) and the capture.
	old   *Runtime
	hold  *place.Thread
	state *rehomeMsg
}

// remap live-migrates thread of tc to node to (Collection.Remap). On an
// error before the flip the placement is unchanged and the held arrivals
// are delivered locally.
func (app *App) remap(ctx context.Context, tc *ThreadCollection, thread int, to string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := app.validateMigratableState(tc); err != nil {
		return err
	}
	app.migrateMu.Lock()
	defer app.migrateMu.Unlock()
	if err := app.Err(); err != nil {
		return err
	}
	from, err := tc.NodeOf(thread)
	if err != nil || from == to {
		return err
	}
	for _, n := range []string{from, to} {
		if err := app.died(n); err != nil {
			return fmt.Errorf("dps: remapping %s[%d]: %w", tc.Name(), thread, err)
		}
	}
	moves := []move{{tc: tc, key: place.Key{Collection: tc.Name(), Thread: thread}, from: from, to: to}}
	if err := app.rehome(ctx, moves, live); err != nil {
		return err
	}
	atomic.AddInt64(&moves[0].old.stats.MigrationsCompleted, 1)
	atomic.AddInt64(&moves[0].old.stats.MigrationBytes, int64(len(moves[0].state.State)))
	return nil
}

// rehome re-places the threads of moves while schedules run (see the file
// comment); outside Map it is the one path by which a thread's placement
// changes. The caller holds migrateMu. A live rehome moves one thread, so
// each thread of a remap commits or rolls back alone; a checkpoint rehome
// moves every thread of a dead node.
func (app *App) rehome(ctx context.Context, moves []move, src rehomeSource) error {
	app.enableSlowRouting()
	if src == live {
		if err := app.capture(ctx, &moves[0]); err != nil {
			return err
		}
	}
	// Arrivals racing the state wait in the target's install buffer instead
	// of lazily creating a fresh instance there.
	for i := range moves {
		rt, _ := app.runtime(moves[i].to)
		rt.place.activate()
		moves[i].installed = rt.placeThread(moves[i].key).Expect()
	}
	rts := app.liveRuntimes()
	master, _ := app.runtime(app.MasterNode())
	for i := range moves {
		mv := &moves[i]
		epoch := app.flipThread(rts, mv.tc, mv.key, mv.to, func(epoch uint64) {
			if src == checkpoint {
				master.replayTo(rts, mv.key, mv.to, epoch)
				return
			}
			for _, r := range rts {
				r.lnk.sendFence(mv.from, &fenceMsg{Collection: mv.key.Collection, Thread: mv.key.Thread, Epoch: epoch, Src: r.name, Phase: fenceClose})
			}
		})
		if src == live {
			mv.state.Epoch, mv.state.Fences = epoch, len(rts)
			mv.old.lnk.sendRehome(mv.to, mv.state)
			for batch := mv.hold.Flush(mv.to); batch != nil; batch = mv.hold.Flush(mv.to) {
				for _, it := range batch {
					mv.old.forwardItem(it.(*placeItem), mv.to)
				}
			}
		}
	}
	if app.rehomeHook != nil {
		app.rehomeHook()
	}
	for i := range moves {
		mv := &moves[i]
		if err := app.awaitInstall(mv); err != nil {
			if mv.old != nil && app.died(mv.from) != nil {
				// The only copy of the state died with the old owner: put the
				// thread back there, so that node's failover re-places it from
				// its checkpoint.
				app.flipThread(rts, mv.tc, mv.key, mv.from, func(uint64) {})
			}
			return err
		}
	}
	return nil
}

// capture is the live source's first step: the old owner holds the
// thread's arrivals, waits for its instance to fall idle and captures it.
// On failure the hold is abandoned: the old owner still owns the instance
// and delivers what it held, in order.
func (app *App) capture(ctx context.Context, mv *move) error {
	mv.old, _ = app.runtime(mv.from)
	mv.old.place.activate()
	mv.hold = mv.old.placeThread(mv.key)
	if err := mv.hold.BeginHold(mv.tc.place.Epoch()); err != nil {
		return fmt.Errorf("dps: thread %s is already migrating", mv.key)
	}
	err := mv.old.waitQuiesce(ctx, mv.hold, mv.tc, mv.key)
	if err == nil {
		mv.state, err = mv.old.captureState(mv.tc, mv.key.Thread)
	}
	if err != nil {
		mv.old.drain(mv.hold, mv.hold.Abort())
	}
	return err
}

// flipThread re-places one thread while holding the key's route lock of
// every runtime in rts, so no post straddles the flip, and runs cut — still
// under the locks — to mark the cut in every sender's stream. The thread
// index was read from the table under migrateMu, which a Map takes too, so
// it is still in range.
func (app *App) flipThread(rts []*Runtime, tc *ThreadCollection, key place.Key, to string, cut func(epoch uint64)) uint64 {
	locks := make([]*sync.Mutex, len(rts))
	for i, r := range rts {
		locks[i] = r.routeLock(key)
		locks[i].Lock()
	}
	epoch, _ := tc.place.SetThread(key.Thread, to)
	cut(epoch)
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock()
	}
	return epoch
}

// awaitInstall blocks until mv's target has installed the thread, so a
// follow-up move of the same thread cannot find a node still waiting for
// the state. Delivery is reliable, so without a failure this lasts while
// the state is in flight. It gives up when the application fails, or when
// the target or a live move's old owner is reported dead: that node's
// failover, queued behind migrateMu, takes over.
func (app *App) awaitInstall(mv *move) error {
	for {
		select {
		case <-mv.installed:
			return nil
		case <-time.After(200 * time.Microsecond):
		}
		if err := app.Err(); err != nil {
			return err
		}
		err := app.died(mv.to)
		if err == nil && mv.old != nil {
			err = app.died(mv.from)
		}
		if err != nil {
			return fmt.Errorf("dps: rehoming %s from %q to %q: %w", mv.key, mv.from, mv.to, err)
		}
	}
}
