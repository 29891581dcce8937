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
// the live-remap protocol that moves one thread instance between cluster
// nodes while flow graphs execute. The protocol, coordinated by
// App.migrateThread on the caller's goroutine:
//
//  1. quiesce — the old owner stops accepting new work for the instance
//     (arrivals are held by a relay), lets queued and in-progress
//     executions drain, and waits for open merge groups to close (tokens
//     and group-ends of already-open groups pass through the hold so the
//     collector can finish);
//  2. capture — the instance's user state is serialized with internal/serial
//     and the instance removed, so it cannot be resurrected locally;
//  3. flip + fence — the collection's placement table is updated (epoch
//     bump) while every runtime's route lock for the thread is held, and
//     each runtime emits a fence pair: a closing fence down its old channel
//     (behind all its stale tokens; the relay forwards it) and an opening
//     fence down the new channel (ahead of all its direct tokens). The new
//     owner buffers a sender's direct tokens between the two fences, which
//     is exactly when stale tokens of that sender may still be in flight —
//     per-instance FIFO order survives the route change;
//  4. ship + forward — the state travels in a migration envelope
//     (msgMigrate) to the new owner, the relay flushes its held arrivals
//     behind it and forwards any later stale traffic (counted as
//     TokensForwarded).
//
// Flow-control accounting needs no migration: window acks route to the
// frame's origin node (split-side group state stays put) and forwarded
// envelopes keep their LastWorker/CreditNode charge, so acknowledgements
// release the same window slots and credits as before the move.
//
// The new owner installs the state on msgMigrate, drains the arrivals it
// buffered while the migration was in flight, and serves the thread from
// then on.

// placeItem is one intercepted arrival: a token envelope (with its resolved
// graph node), a group-end, or a fence, plus the transport-level source it
// arrived from (fence gating is per sender).
type placeItem struct {
	src   string
	env   *envelope
	g     *Flowgraph
	node  *GraphNode
	ge    *groupEndMsg
	fence *fenceMsg
}

// relayEntry pairs a relay with the placement epoch observed when its hold
// began: fences carrying a later epoch belong to the migration in progress
// and travel with the held stream; earlier ones are stragglers of past
// migrations and terminate here.
type relayEntry struct {
	relay      *place.Relay
	startEpoch uint64
}

// placeState is a runtime's migration bookkeeping. The zero value is ready;
// the hot paths consult only the sticky `active` flag until this node first
// participates in a migration.
type placeState struct {
	active atomic.Int32
	gates  place.Gates

	// fastRoutes counts this runtime's posts inside the pre-migration
	// routing fast path (see routeFast).
	fastRoutes atomic.Int64

	mu        sync.Mutex
	relays    map[place.Key]*relayEntry
	pending   map[place.Key][]placeItem
	ownEpoch  map[place.Key]uint64        // epoch at which this node (re)gained the instance
	installed map[place.Key]chan struct{} // closed when the inbound migration activates
	fences    map[place.Key]*fenceQuota   // handshake completions of the inbound migration

	routeMu    sync.Mutex
	routeLocks map[place.Key]*sync.Mutex
}

func (ps *placeState) ownEpochOf(key place.Key) uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.ownEpoch[key]
}

// fenceQuota tracks how many of the fence pairs cut for the migration that
// brought an instance here have terminally completed. Until done reaches
// expected, a stale token of that migration may still be in flight through
// some relay chain, so the instance must not migrate onward (a later flip
// would let fresher traffic overtake the stragglers).
type fenceQuota struct {
	epoch    uint64
	expected int
	done     int
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
		rt.lnk.sendToken(env, target)
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
	rt.lnk.sendToken(env, target)
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
		rt.lnk.sendGroupEnd(target, m)
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
	rt.lnk.sendGroupEnd(target, m)
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

// --- receiver side: intercepts ------------------------------------------

// placeIntercept runs one non-fence arrival through the placement state
// machines, in order: the relay of an instance that migrated away
// (forwarding mode), the fence gates (a sender's direct tokens buffer
// between its opening and forwarded closing fence), the relay of an
// instance quiescing here (hold, with pass-through for open merge groups),
// and the pending buffer of an inbound migration whose state has not
// arrived yet. It reports whether the item was consumed; otherwise the
// caller dispatches it normally.
func (rt *Runtime) placeIntercept(key place.Key, it placeItem) bool {
	ps := &rt.place
	ps.mu.Lock()
	re := ps.relays[key]
	ps.mu.Unlock()
	if re != nil && re.relay.Target() != "" {
		target, held := re.relay.Offer(it)
		if !held {
			rt.forwardItem(it, target)
		}
		return true
	}
	if rt.place.gates.Offer(key, it.src, ps.ownEpochOf(key), it) {
		return true
	}
	ps.mu.Lock()
	if re := ps.relays[key]; re != nil {
		if re.relay.Target() == "" && rt.holdPassThrough(key, it) {
			ps.mu.Unlock()
			return false // open merge group: the collector needs it to quiesce
		}
		target, held := re.relay.Offer(it)
		ps.mu.Unlock()
		if !held {
			rt.forwardItem(it, target)
		}
		return true
	}
	if pend, ok := ps.pending[key]; ok {
		ps.pending[key] = append(pend, it)
		ps.mu.Unlock()
		return true
	}
	ps.mu.Unlock()
	return false
}

// holdPassThrough reports whether an arrival held by a quiescing relay must
// instead pass through: tokens and group-ends of a merge group already open
// on the local instance are needed for its collector to finish (holding
// them would deadlock the quiesce against its own drain condition).
func (rt *Runtime) holdPassThrough(key place.Key, it placeItem) bool {
	var groupID uint64
	switch {
	case it.env != nil:
		if it.node.op.kind != KindMerge && it.node.op.kind != KindStream {
			return false
		}
		fr, ok := it.env.topFrame()
		if !ok {
			return false
		}
		groupID = fr.GroupID
	case it.ge != nil:
		groupID = it.ge.GroupID
	default:
		return false
	}
	inst := rt.lookupInstance(instKey{collection: key.Collection, index: key.Thread})
	if inst == nil {
		return false
	}
	inst.mu.Lock()
	_, open := inst.groups[groupID]
	inst.mu.Unlock()
	return open
}

// forwardItem re-sends an arrival to the instance's current owner on behalf
// of a relay. Send failures are application failures (the transport to a
// live peer broke), matching handler-context error handling.
func (rt *Runtime) forwardItem(it placeItem, target string) {
	defer func() {
		if r := recover(); r != nil {
			if oe, ok := r.(opError); ok {
				rt.app.fail(oe.err)
				return
			}
			panic(r)
		}
	}()
	switch {
	case it.env != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		if it.env.TraceID != 0 {
			rt.traceSpan(it.env.TraceID, "forward", target, time.Now().UnixNano(), 0)
		}
		rt.lnk.sendToken(it.env, target)
	case it.ge != nil:
		atomic.AddInt64(&rt.stats.TokensForwarded, 1)
		rt.lnk.sendGroupEnd(target, it.ge)
	case it.fence != nil:
		if err := rt.lnk.sendFence(target, it.fence); err != nil {
			rt.app.fail(err)
		}
	}
}

// deliverDirect dispatches an arrival to the local instance, bypassing the
// placement intercepts (used for items released from gates or drained from
// the pending buffer — their ordering has already been decided).
func (rt *Runtime) deliverDirect(it placeItem) {
	switch {
	case it.env != nil:
		rt.dispatchToken(it.g, it.node, it.env)
	case it.ge != nil:
		rt.applyGroupEnd(it.node, it.ge)
	case it.fence != nil:
		rt.applyFence(it.fence)
	}
}

// deliverFence routes one arriving fence: down the chain when the instance
// migrated away, with the held stream when it belongs to the migration
// currently quiescing here, into the pending buffer before activation, and
// into the sender's gate otherwise.
func (rt *Runtime) deliverFence(m *fenceMsg) {
	ps := &rt.place
	ps.active.Store(1)
	key := place.Key{Collection: m.Collection, Thread: m.Thread}
	it := placeItem{src: m.Src, fence: m}
	ps.mu.Lock()
	if re := ps.relays[key]; re != nil {
		if re.relay.Target() != "" || m.Epoch > re.startEpoch {
			// Not ours to terminate: a forwarding relay passes every fence
			// onward; a holding relay passes the in-progress migration's
			// fences (epoch beyond its hold snapshot) with the held stream.
			target, held := re.relay.Offer(it)
			ps.mu.Unlock()
			if !held {
				rt.forwardItem(it, target)
			}
			return
		}
	}
	if pend, ok := ps.pending[key]; ok {
		ps.pending[key] = append(pend, it)
		ps.mu.Unlock()
		return
	}
	ps.mu.Unlock()
	rt.applyFence(m)
}

// applyFence terminates a fence at this node: it feeds the sender's gate,
// releasing the buffered direct tokens once both fence halves have arrived.
// If the instance is quiescing here (relay holding), released items rejoin
// the protocol at the hold stage — they are new work for the next owner,
// ordered behind the stale stream that preceded the closing fence.
func (rt *Runtime) applyFence(m *fenceMsg) {
	key := place.Key{Collection: m.Collection, Thread: m.Thread}
	deliver := func(item any) {
		pi := item.(placeItem)
		ps := &rt.place
		ps.mu.Lock()
		re := ps.relays[key]
		if re != nil && re.relay.Target() == "" && rt.holdPassThrough(key, pi) {
			re = nil
		}
		ps.mu.Unlock()
		if re != nil {
			if target, held := re.relay.Offer(pi); !held {
				rt.forwardItem(pi, target)
			}
			return
		}
		rt.deliverDirect(pi)
	}
	completed := rt.place.gates.OnFence(key, m.Src, m.Epoch, place.FencePhase(m.Phase), deliver)
	if completed {
		ps := &rt.place
		ps.mu.Lock()
		if fq := ps.fences[key]; fq != nil && fq.epoch == m.Epoch {
			fq.done++
		}
		ps.mu.Unlock()
	}
}

// --- old-owner side: hold, quiesce, capture -----------------------------

// beginHold installs a holding relay for the instance, so new arrivals stop
// reaching it while it quiesces.
func (rt *Runtime) beginHold(key place.Key, startEpoch uint64) (*relayEntry, error) {
	ps := &rt.place
	ps.active.Store(1)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, ok := ps.relays[key]; ok {
		return nil, fmt.Errorf("dps: thread %s is already migrating", key)
	}
	if ps.relays == nil {
		ps.relays = make(map[place.Key]*relayEntry)
	}
	re := &relayEntry{relay: new(place.Relay), startEpoch: startEpoch}
	ps.relays[key] = re
	return re, nil
}

// abortHold rolls a failed migration back: the relay is removed and its
// held arrivals re-dispatched locally in order (the placement never
// flipped, so this node still owns the instance).
func (rt *Runtime) abortHold(key place.Key, re *relayEntry) {
	ps := &rt.place
	ps.mu.Lock()
	delete(ps.relays, key)
	ps.mu.Unlock()
	for _, item := range re.relay.Abort() {
		rt.deliverDirect(item.(placeItem))
	}
}

// instanceIdle reports whether the quiescing instance has fully drained: no
// execution queued or in flight, no open merge group, and no outstanding
// fence handshake from the migration that brought the instance here. The
// fence quota is the load-bearing half of that last condition: only once
// every sender's fence pair has terminally completed at this node is it
// certain that no stale token of the previous epoch is still in flight
// through a relay chain — a premature onward flip would let fresh traffic
// overtake those stragglers and break per-instance FIFO order.
func (rt *Runtime) instanceIdle(key place.Key) bool {
	ps := &rt.place
	ps.mu.Lock()
	if fq := ps.fences[key]; fq != nil && fq.done < fq.expected {
		ps.mu.Unlock()
		return false
	}
	ps.mu.Unlock()
	own := rt.place.ownEpochOf(key)
	if rt.place.gates.PendingFor(key, own, func(item any) { rt.deliverDirect(item.(placeItem)) }) {
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
	// consistent idle snapshot (new work is held by the relay).
	inst.mu.Lock()
	n := len(inst.groups)
	inst.mu.Unlock()
	return n == 0
}

// waitQuiesce polls until the instance is idle, the context expires, or the
// application fails.
func (rt *Runtime) waitQuiesce(ctx context.Context, key place.Key) error {
	delay := 50 * time.Microsecond
	for {
		if rt.instanceIdle(key) {
			return nil
		}
		if err := rt.app.Err(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dps: quiescing thread %s: %w", key, err)
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

// emitFences sends this runtime's fence pair for a placement flip: the
// closing fence down the old channel, the opening fence down the new one.
// The coordinator holds this runtime's route lock for the key, so the pair
// cleanly cuts this sender's token stream in two.
func (rt *Runtime) emitFences(key place.Key, epoch uint64, from, to string) {
	closing := &fenceMsg{Collection: key.Collection, Thread: key.Thread, Epoch: epoch, Src: rt.name, Phase: byte(place.FenceClose)}
	opening := &fenceMsg{Collection: key.Collection, Thread: key.Thread, Epoch: epoch, Src: rt.name, Phase: byte(place.FenceOpen)}
	if err := rt.lnk.sendFence(from, closing); err != nil {
		rt.app.fail(err)
	}
	if err := rt.lnk.sendFence(to, opening); err != nil {
		rt.app.fail(err)
	}
}

// --- new-owner side: expect, install, drain -----------------------------

// expectPending opens the pending buffer for an inbound migration, so
// direct arrivals racing the state envelope are buffered instead of lazily
// creating a fresh instance. The returned channel closes when the state
// envelope arrives and the instance activates; the coordinator waits on it,
// so a follow-up migration of the same thread cannot start against a node
// that has not received the state yet.
func (rt *Runtime) expectPending(key place.Key) <-chan struct{} {
	ps := &rt.place
	ps.active.Store(1)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// The instance is coming back: a forwarding relay left over from its
	// earlier departure must not shadow the pending buffer (it would
	// mis-forward the new epoch's fences and direct tokens). The previous
	// migration's fence quota completed before this one began, so the stale
	// relay has no legitimate traffic left to carry.
	delete(ps.relays, key)
	if ps.pending == nil {
		ps.pending = make(map[place.Key][]placeItem)
	}
	if _, ok := ps.pending[key]; !ok {
		ps.pending[key] = nil
	}
	if ps.installed == nil {
		ps.installed = make(map[place.Key]chan struct{})
	}
	ch, ok := ps.installed[key]
	if !ok {
		ch = make(chan struct{})
		ps.installed[key] = ch
	}
	return ch
}

// installMigrated activates a migrated instance on this node: the shipped
// state is deserialized, the instance registered, and the arrivals buffered
// while the migration was in flight are drained in order.
func (rt *Runtime) installMigrated(m *migrateMsg) {
	tc, ok := rt.app.Collection(m.Collection)
	if !ok {
		rt.app.fail(fmt.Errorf("dps: migration for unknown collection %q", m.Collection))
		return
	}
	state := tc.newState()
	if len(m.State) > 0 {
		v, _, err := rt.app.reg.Unmarshal(m.State)
		if err != nil {
			rt.app.fail(fmt.Errorf("dps: cannot deserialize migrated state of %s[%d]: %w", m.Collection, m.Thread, err))
			return
		}
		if want := reflect.PointerTo(tc.stateType); reflect.TypeOf(v) != want {
			rt.app.fail(fmt.Errorf("dps: migrated state of %s[%d] decoded as %T, want %s", m.Collection, m.Thread, v, want))
			return
		}
		state = v
	}
	ik := instKey{collection: m.Collection, index: m.Thread}
	inst := &threadInstance{
		rt:     rt,
		tc:     tc,
		index:  m.Thread,
		state:  state,
		groups: make(map[uint64]*mergeGroup),
	}
	if rt.app.ftOn {
		inst.ft = ft.NewState(ft.StreamOf(m.Collection, m.Thread))
		if len(m.FT) > 0 {
			rec, err := ft.DecodeRecord(m.FT)
			if err != nil {
				rt.failApp(fmt.Errorf("dps: corrupt migrated ft record of %s[%d]: %w", m.Collection, m.Thread, err))
				return
			}
			inst.ft.Restore(rec)
		}
	}
	rt.sched.InitInstance(&inst.exec, shardKey(m.Collection, m.Thread))
	rt.mu.Lock()
	if _, exists := rt.threads[ik]; exists {
		rt.mu.Unlock()
		rt.app.fail(fmt.Errorf("dps: migration target %s[%d] already instantiated on %q", m.Collection, m.Thread, rt.name))
		return
	}
	rt.threads[ik] = inst
	rt.mu.Unlock()

	key := place.Key{Collection: m.Collection, Thread: m.Thread}
	ps := &rt.place
	ps.mu.Lock()
	delete(ps.relays, key) // re-ownership: this node stops relaying for itself
	if ps.ownEpoch == nil {
		ps.ownEpoch = make(map[place.Key]uint64)
	}
	ps.ownEpoch[key] = m.Epoch
	if ps.fences == nil {
		ps.fences = make(map[place.Key]*fenceQuota)
	}
	ps.fences[key] = &fenceQuota{epoch: m.Epoch, expected: m.Fences}
	if ch, ok := ps.installed[key]; ok {
		close(ch)
		delete(ps.installed, key)
	}
	_, hasPending := ps.pending[key]
	ps.mu.Unlock()
	if hasPending {
		rt.drainPending(key)
	}
}

// drainPending replays the arrivals buffered before activation, in order.
// The buffer entry stays present while draining, so concurrent arrivals
// append behind the replay instead of overtaking it.
func (rt *Runtime) drainPending(key place.Key) {
	ps := &rt.place
	for {
		ps.mu.Lock()
		pend := ps.pending[key]
		if len(pend) == 0 {
			delete(ps.pending, key)
			ps.mu.Unlock()
			return
		}
		it := pend[0]
		ps.pending[key] = pend[1:]
		ps.mu.Unlock()
		if it.fence != nil {
			rt.applyFence(it.fence)
			continue
		}
		if rt.place.gates.Offer(key, it.src, ps.ownEpochOf(key), it) {
			continue
		}
		rt.deliverDirect(it)
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
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && app.cfg.RemapDrain > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, app.cfg.RemapDrain)
		defer cancel()
	}

	app.migrateMu.Lock()
	defer app.migrateMu.Unlock()
	app.enableSlowRouting()

	key := place.Key{Collection: tc.Name(), Thread: thread}
	re, err := rtOld.beginHold(key, tc.place.Epoch())
	if err != nil {
		return err
	}
	if err := rtOld.waitQuiesce(ctx, key); err != nil {
		rtOld.abortHold(key, re)
		return err
	}
	payload, ftRec, err := rtOld.captureState(tc, thread)
	if err != nil {
		rtOld.abortHold(key, re)
		return err
	}

	// Flip the placement and cut every sender's stream with a fence pair,
	// all under the per-runtime route locks so no post straddles the flip.
	installed := rtNew.expectPending(key)
	rts := app.allRuntimes()
	locks := make([]*sync.Mutex, len(rts))
	for i, r := range rts {
		locks[i] = r.routeLock(key)
		locks[i].Lock()
	}
	epoch, serr := tc.place.SetThread(thread, to)
	if serr == nil {
		for _, r := range rts {
			r.emitFences(key, epoch, from, to)
		}
	}
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock()
	}
	if serr != nil {
		// Unreachable in practice (the thread index was validated above);
		// surface it without corrupting the placement.
		rtOld.abortHold(key, re)
		return serr
	}

	// Ship the state; the relay flushes its held arrivals behind it on the
	// same channel, then forwards stale traffic from then on.
	if err := rtOld.lnk.sendMigrate(to, &migrateMsg{Collection: key.Collection, Thread: thread, Epoch: epoch, Fences: len(rts), State: payload, FT: ftRec}); err != nil {
		err = fmt.Errorf("dps: shipping state of %s to %q: %w", key, to, err)
		app.fail(err)
		return err
	}
	re.relay.Flush(to, func(item any) { rtOld.forwardItem(item.(placeItem), to) })

	// The handover completes when the new owner has installed the state; a
	// follow-up migration of the same thread must not observe a node that
	// is still waiting for the envelope (it would capture a nil instance
	// and lose the state). Delivery is reliable in-process, so this only
	// blocks while the envelope is in flight — or until the application
	// fails.
	for {
		select {
		case <-installed:
			atomic.AddInt64(&rtOld.stats.MigrationsCompleted, 1)
			atomic.AddInt64(&rtOld.stats.MigrationBytes, int64(len(payload)))
			return nil
		case <-time.After(200 * time.Microsecond):
			if err := app.Err(); err != nil {
				return err
			}
		}
	}
}
