package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// This file is the engine half of the placement layer (internal/core/place):
// the live-remap protocol that moves one thread instance between cluster
// nodes while flow graphs execute. What a node knows about one thread's move
// is one place.Thread; this file looks the machine up, acts on its verdicts
// and carries the state. The protocol, coordinated by App.migrateThread on
// the caller's goroutine:
//
//  1. quiesce — the old owner's machine starts holding arrivals, queued and
//     in-progress executions drain, and open merge groups close (tokens and
//     group-ends of already-open groups pass through the hold so the
//     collector can finish);
//  2. capture — the instance's user state is serialized with internal/serial
//     and the instance removed, so it cannot be resurrected locally;
//  3. flip + fence — the collection's placement table is updated (epoch
//     bump) while every runtime's route lock for the thread is held, and
//     each runtime emits a closing fence down its old channel, behind all
//     its stale tokens; the old owner forwards it. The new owner gates a
//     sender's direct tokens until that fence has come through — exactly
//     while stale tokens of that sender may still be in flight — so
//     per-instance FIFO order survives the route change;
//  4. ship + forward — the state travels in a migration envelope
//     (msgMigrate) to the new owner, the held arrivals follow it on the
//     forwarded lane, and so does any later stale traffic (counted as
//     TokensForwarded). Forwarded traffic is marked as such (link.go), so
//     the new owner never mistakes it for the forwarder's own posts.
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
// closing fence). Failures propagate as opError panics, like sendToken.
func (rt *Runtime) routeToken(env *envelope, tc *ThreadCollection, thread int) {
	if rt.routeFast() {
		defer rt.routeFastDone()
		target, err := tc.NodeOf(thread)
		if err != nil {
			panic(opError{err})
		}
		rt.lnk.sendToken(env, target, place.Direct)
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
		// Stamp, retain and send atomically per destination: the receiver's
		// duplicate filter needs sequence order to match send order.
		rt.ftOutbound(env, tc.Name(), thread)
	}
	rt.lnk.sendToken(env, target, place.Direct)
}

// routeGroupEnd is routeToken for group-end announcements; sender is the
// opener instance's fault-tolerance state and inStream/inSeq identify the
// opener's input (all zero with the layer off).
func (rt *Runtime) routeGroupEnd(m *groupEndMsg, tc *ThreadCollection, thread int, sender *ft.State, inStream string, inSeq uint64) {
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
	rt.routeToken(env, tc, thread)
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
	inst := rt.lookupInstance(instKey{collection: it.node.tc.Name(), index: thread})
	if inst == nil {
		return false
	}
	inst.mu.Lock()
	_, open := inst.groups[groupID]
	inst.mu.Unlock()
	return open
}

// forwardItem re-sends an arrival to the instance's current owner on the
// forwarded lane. Send failures are application failures (the transport to
// a live peer broke), matching handler-context error handling.
func (rt *Runtime) forwardItem(it *placeItem, target string) {
	defer recoverOpError(rt.app.fail)
	switch {
	case it.env != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		if it.env.TraceID != 0 {
			rt.traceSpan(it.env.TraceID, "forward", target, time.Now().UnixNano(), 0)
		}
		rt.lnk.sendToken(it.env, target, place.Forwarded)
	case it.ge != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		rt.lnk.sendGroupEnd(target, it.ge, place.Forwarded)
	case it.fence != nil:
		if err := rt.lnk.sendFence(target, it.fence); err != nil {
			rt.app.fail(err)
		}
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
func (rt *Runtime) instanceIdle(th *place.Thread, key place.Key) bool {
	// Machine first: every delivery it cleared is registered in the
	// instance's in-flight count before the machine stops counting it.
	if !th.Quiesced() {
		return false
	}
	inst := rt.lookupInstance(instKey{collection: key.Collection, index: key.Thread})
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

// waitQuiesce polls until the instance is idle, the context expires, or the
// application fails.
func (rt *Runtime) waitQuiesce(ctx context.Context, th *place.Thread, key place.Key) error {
	delay := 50 * time.Microsecond
	for {
		if rt.instanceIdle(th, key) {
			return nil
		}
		if err := rt.app.Err(); err != nil {
			return err
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
// payload means the new owner starts from a fresh zero state (stateless
// collection, or the instance was never touched here). With fault
// tolerance enabled the instance's sequencing cursors and retention log
// travel too (ftRec), so the re-homed instance continues its streams
// instead of restarting them — a restart would collide with every
// receiver's duplicate filter.
func (rt *Runtime) captureState(tc *ThreadCollection, thread int) (payload, ftRec []byte, err error) {
	ik := instKey{collection: tc.Name(), index: thread}
	rt.mu.Lock()
	inst := rt.threads[ik]
	delete(rt.threads, ik)
	rt.mu.Unlock()
	if inst == nil {
		return nil, nil, nil
	}
	if inst.ft != nil {
		ftRec = inst.ft.Snapshot().Encode(nil)
	}
	if !stateMigrates(tc.stateType) {
		return nil, ftRec, nil
	}
	payload, err = rt.app.reg.Marshal(inst.state)
	if err != nil {
		rt.mu.Lock()
		rt.threads[ik] = inst
		rt.mu.Unlock()
		return nil, nil, fmt.Errorf("dps: cannot serialize state of %s[%d]: %w", tc.Name(), thread, err)
	}
	return payload, ftRec, nil
}

// lookupInstance returns the local instance, or nil, without creating it.
func (rt *Runtime) lookupInstance(ik instKey) *threadInstance {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.threads[ik]
}

// --- new-owner side: expect, install --------------------------------------

// expectThread opens the machine's install buffer for an inbound move, so
// direct arrivals racing the state envelope are buffered instead of lazily
// creating a fresh instance. The returned channel closes when the state
// arrives and the instance activates; the coordinator waits on it, so a
// follow-up move of the same thread cannot start against a node that has not
// received the state yet.
func (rt *Runtime) expectThread(key place.Key) <-chan struct{} {
	rt.place.activate()
	return rt.placeThread(key).Expect()
}

// restoreInstance builds a thread instance from shipped bytes: the state of
// a live migration or of a checkpoint (empty: a fresh zero state), and the
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
		inst.ft = ft.NewState(ft.StreamOf(key.Collection, key.Thread))
		if rec != nil {
			inst.ft.Restore(rec)
		}
	}
	rt.sched.InitInstance(&inst.exec)
	return inst, nil
}

// install activates inst on this node as of the flip to epoch — the one
// path by which a thread changes owner, for a live migration (fences: the
// senders the flip cut; first: none) and a failover (no fences, the
// coordinator's channel drained first) alike.
func (rt *Runtime) install(inst *threadInstance, epoch uint64, fences int, first string) error {
	key := place.Key{Collection: inst.tc.Name(), Thread: inst.index}
	ik := instKey{collection: key.Collection, index: key.Thread}
	rt.mu.Lock()
	if _, exists := rt.threads[ik]; exists {
		rt.mu.Unlock()
		return fmt.Errorf("already instantiated on %q", rt.name)
	}
	rt.threads[ik] = inst
	rt.mu.Unlock()
	th := rt.placeThread(key)
	rt.drain(th, th.Install(epoch, fences, first))
	return nil
}

// installMigrated activates a migrated instance on this node from its
// migration envelope.
func (rt *Runtime) installMigrated(m *migrateMsg) {
	key := place.Key{Collection: m.Collection, Thread: m.Thread}
	var rec *ft.Record
	if len(m.FT) > 0 {
		var err error
		if rec, err = ft.DecodeRecord(m.FT); err != nil {
			rt.failApp(fmt.Errorf("dps: corrupt migrated ft record of %s: %w", key, err))
			return
		}
	}
	inst, err := rt.restoreInstance(key, m.State, rec)
	if err == nil {
		err = rt.install(inst, m.Epoch, m.Fences, "")
	}
	if err != nil {
		rt.app.fail(fmt.Errorf("dps: migration of %s: %w", key, err))
	}
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

// flipThread re-places one thread while holding the key's route lock of
// every runtime in rts, so no post straddles the flip, and runs cut — still
// under the locks — to mark the cut in every sender's stream.
func (app *App) flipThread(rts []*Runtime, tc *ThreadCollection, key place.Key, to string, cut func(epoch uint64)) (uint64, error) {
	locks := make([]*sync.Mutex, len(rts))
	for i, r := range rts {
		locks[i] = r.routeLock(key)
		locks[i].Lock()
	}
	epoch, err := tc.place.SetThread(key.Thread, to)
	if err == nil {
		cut(epoch)
	}
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock()
	}
	return epoch, err
}

var errNotInstalled = errors.New("dps: the new owner did not activate the thread")

// awaitInstall blocks until a new owner has activated the thread it was
// told to expect, the application fails, or the deadline (if any) passes
// (errNotInstalled). Delivery is reliable in-process, so without a failure
// this only lasts while the envelope is in flight.
func (app *App) awaitInstall(installed <-chan struct{}, deadline time.Time) error {
	for {
		select {
		case <-installed:
			return nil
		case <-time.After(200 * time.Microsecond):
			if err := app.Err(); err != nil {
				return err
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return errNotInstalled
			}
		}
	}
}

// migrateThread runs the live-remap protocol for one thread (see the file
// comment). Migrations are serialized application-wide; on error the
// placement is unchanged and held arrivals are re-dispatched locally.
func (app *App) migrateThread(ctx context.Context, tc *ThreadCollection, thread int, to string) error {
	if err := app.Err(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	from, err := tc.NodeOf(thread)
	if err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if err := app.validateMigratableState(tc); err != nil {
		return err
	}
	rtOld, ok := app.runtime(from)
	if !ok {
		return fmt.Errorf("dps: thread %s[%d] is hosted on unknown node %q", tc.Name(), thread, from)
	}
	rtNew, ok := app.runtime(to)
	if !ok {
		return fmt.Errorf("dps: collection %q: unknown node %q", tc.Name(), to)
	}
	app.migrateMu.Lock()
	defer app.migrateMu.Unlock()
	app.enableSlowRouting()

	key := place.Key{Collection: tc.Name(), Thread: thread}
	rtOld.place.activate()
	th := rtOld.placeThread(key)
	if err := th.BeginHold(tc.place.Epoch()); err != nil {
		return fmt.Errorf("dps: thread %s is already migrating", key)
	}
	// On failure before the flip the hold is abandoned: this node still owns
	// the instance and delivers what it held, in order.
	if err := rtOld.waitQuiesce(ctx, th, key); err != nil {
		rtOld.drain(th, th.Abort())
		return err
	}
	payload, ftRec, err := rtOld.captureState(tc, thread)
	if err != nil {
		rtOld.drain(th, th.Abort())
		return err
	}

	// Flip the placement and cut every sender's stream with a closing fence
	// down its old channel, behind every token it posted to the old owner —
	// all under the per-runtime route locks so no post straddles the flip.
	installed := rtNew.expectThread(key)
	rts := app.allRuntimes()
	epoch, err := app.flipThread(rts, tc, key, to, func(epoch uint64) {
		for _, r := range rts {
			m := &fenceMsg{Collection: key.Collection, Thread: thread, Epoch: epoch, Src: r.name, Phase: fenceClose}
			if err := r.lnk.sendFence(from, m); err != nil {
				app.fail(err)
			}
		}
	})
	if err != nil {
		// Unreachable in practice (the thread index was validated above);
		// surface it without corrupting the placement.
		rtOld.drain(th, th.Abort())
		return err
	}

	// Ship the state; the held arrivals follow it on the same channel, and
	// stale traffic is forwarded from then on.
	if err := rtOld.lnk.sendMigrate(to, &migrateMsg{Collection: key.Collection, Thread: thread, Epoch: epoch, Fences: len(rts), State: payload, FT: ftRec}); err != nil {
		err = fmt.Errorf("dps: shipping state of %s to %q: %w", key, to, err)
		app.fail(err)
		return err
	}
	for batch := th.Flush(to); batch != nil; batch = th.Flush(to) {
		for _, it := range batch {
			rtOld.forwardItem(it.(*placeItem), to)
		}
	}

	// The handover completes when the new owner has installed the state; a
	// follow-up migration of the same thread must not observe a node that
	// is still waiting for the envelope (it would capture a nil instance
	// and lose the state).
	if err := app.awaitInstall(installed, time.Time{}); err != nil {
		return err
	}
	atomic.AddInt64(&rtOld.stats.MigrationsCompleted, 1)
	atomic.AddInt64(&rtOld.stats.MigrationBytes, int64(len(payload)))
	return nil
}
