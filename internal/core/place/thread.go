package place

import (
	"fmt"
	"sync"
)

// Lane says how an arrival reached this node.
type Lane uint8

const (
	// Direct: the sender resolved this node from the placement table and
	// posted the item over its own channel.
	Direct Lane = iota
	// Forwarded: a former owner re-sent the item. It is by construction older
	// than anything its original sender posts directly, so it never waits in
	// a gate.
	Forwarded
)

// Verdict is what the caller must do with an arrival.
type Verdict uint8

const (
	// Absorbed: the machine consumed the item (a fence, applied or stale).
	Absorbed Verdict = iota
	// Deliver: hand the item to the local instance now, then call Done. It
	// is counted in flight from the verdict until Done.
	Deliver
	// Held: kept by the hold of an outbound move; Flush or Abort returns it.
	Held
	// Buffered: kept until its turn comes — the thread's state has not
	// arrived yet, the sender's gate is shut, or a drain is delivering
	// earlier items. A later batch (Fence, Install, Abort, Next) returns it.
	Buffered
	// Forward: the thread lives elsewhere; re-send the item to the returned
	// target on the forwarded lane.
	Forward
)

type mode uint8

const (
	serving    mode = iota // this node owns the thread (or never saw it move)
	holding                // owner, quiescing for an outbound move: arrivals are held
	forwarding             // the thread moved away: arrivals are re-sent to target
	expecting              // the thread is moving here: arrivals wait for Install
)

// entry is one buffered arrival. A fence entry carries the epoch of the
// flip it cut; src is then the sender whose stream it closes.
type entry struct {
	src   string
	lane  Lane
	item  any
	fence bool
	epoch uint64
}

// gate is one sender's handshake with a new owner: until the sender's
// closing fence arrives down the forwarded lane — behind every stale item
// that sender posted to the old owner — its direct items wait in buf.
type gate struct {
	closed bool
	buf    []entry
}

// Thread is one node's view of one thread's placement: the per-key state
// machine of the live-remap protocol. All state is guarded by one mutex, so
// an arrival's verdict, its in-flight accounting and every buffer it may
// join are one atomic step; the methods never block and call nothing but the
// pass-through predicate (NewThread).
//
// Ordering contract. Items a batch returns (Fence, Install, Abort, Next)
// are in delivery order, and a batch opens a drain: until the caller's Next
// returns nil, every arrival that would be delivered is Buffered behind the
// batch instead, so nothing overtakes it. At most one drain is open at a
// time; the goroutine that received the non-nil batch owns it.
type Thread struct {
	mu      sync.Mutex
	through func(item any) bool

	mode      mode
	target    string        // forwarding: where arrivals are re-sent
	holdEpoch uint64        // holding: the table epoch when the hold began
	held      []entry       // holding: arrivals in order, flushed to the next owner
	pending   []entry       // expecting: arrivals in order, admitted by Install
	installed chan struct{} // expecting: closed by Install

	ownEpoch uint64           // epoch of the flip that brought the thread here
	quota    int              // closing fences of that flip still to come; > 0 = gating
	gates    map[string]*gate // by sender, while gating

	ready      []any // decided deliveries waiting for the open drain
	draining   bool
	delivering int // Deliver verdicts and batch items not yet reported done
}

// NewThread returns a serving thread whose hold lets through the items the
// predicate accepts (arrivals of merge groups already open on the instance:
// holding them would deadlock the quiesce against its own drain condition).
// The predicate runs under the thread's lock and must not call back into it.
func NewThread(through func(item any) bool) *Thread {
	return &Thread{through: through}
}

// Arrive decides one token or group-end arriving from node src.
func (t *Thread) Arrive(src string, lane Lane, item any) (Verdict, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decide(entry{src: src, lane: lane, item: item}, true)
}

// Fence decides an arriving closing fence: the one sender src emitted down
// its old channel when the flip to epoch cut its stream. A fence that closes
// the last gap may release buffered items; a non-nil batch opens a drain.
func (t *Thread) Fence(src string, epoch uint64, item any) (Verdict, string, []any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, target := t.decide(entry{src: src, item: item, fence: true, epoch: epoch}, true)
	return v, target, t.openDrain(false)
}

// Done reports a Deliver verdict's item enqueued on the instance or retired.
func (t *Thread) Done() {
	t.mu.Lock()
	t.delivering--
	t.mu.Unlock()
}

// Next reports the n items of the drain's previous batch enqueued or
// retired and returns the items that queued behind them; nil closes the
// drain.
func (t *Thread) Next(n int) []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delivering -= n
	if len(t.ready) == 0 {
		t.draining = false
		return nil
	}
	return t.takeReady()
}

// BeginHold starts an outbound move: from now on arrivals are held. epoch is
// the placement table's epoch before the move's flip, which tells the move's
// own fences (they travel with the held stream) from earlier ones.
func (t *Thread) BeginHold(epoch uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode != serving {
		return fmt.Errorf("place: thread is already moving")
	}
	t.mode, t.holdEpoch = holding, epoch
	return nil
}

// Abort abandons a move before its flip: this node still owns the thread,
// and the held arrivals are returned for local delivery, in order.
func (t *Thread) Abort() []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.held
	t.mode, t.held = serving, nil
	for _, e := range held {
		t.decide(e, false)
	}
	return t.openDrain(false)
}

// Quiesced reports whether a held thread has nothing left that could reach
// its instance: no delivery in flight or queued, and every sender's
// handshake of the move that brought the thread here complete — until then
// a stale item of that move may still be in flight through a relay, and a
// further flip would let fresher traffic overtake it. The caller still has
// to wait for the instance itself (queued executions, open merge groups).
func (t *Thread) Quiesced() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mode == holding && t.delivering == 0 && !t.draining && t.quota == 0
}

// Flush hands the held arrivals to the caller to forward to target, the
// thread's new owner. The thread keeps holding while the caller sends them,
// so a racing arrival cannot be forwarded ahead of the buffer it follows;
// call Flush again after sending. Once nothing is held it starts forwarding
// and returns nil.
func (t *Thread) Flush(target string) []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode != holding {
		return nil
	}
	if len(t.held) == 0 {
		t.mode, t.target = forwarding, target
		return nil
	}
	batch := make([]any, len(t.held))
	for i, e := range t.held {
		batch[i] = e.item
	}
	t.held = nil
	return batch
}

// Retarget repoints a forwarding thread: the node it forwarded to died and
// the thread was recovered on target.
func (t *Thread) Retarget(target string) {
	t.mu.Lock()
	if t.mode == forwarding {
		t.target = target
	}
	t.mu.Unlock()
}

// Expect prepares for the thread's state to arrive: from now on arrivals
// wait for Install. A forwarding duty left from an earlier departure ends
// here — the move that took the thread away completed every handshake before
// this one could begin, so nothing is left for it to carry. The returned
// channel is closed by Install.
func (t *Thread) Expect() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode != expecting {
		t.mode, t.target, t.installed = expecting, "", make(chan struct{})
	}
	return t.installed
}

// Install makes this node the thread's owner as of the flip to epoch. The
// arrivals that waited are admitted in order — those that came from node
// first ahead of the rest — and returned as a batch (never nil: the drain is
// open even if nothing waited, so the caller can finish activating the
// instance before anything new is delivered). fences is the number of
// senders whose streams the flip cut: each sender's direct items stay gated
// until its closing fence has arrived, and the thread cannot quiesce for a
// further move before all of them have. Zero fences (a failover: the dead
// owner forwards nothing) gates nobody.
func (t *Thread) Install(epoch uint64, fences int, first string) []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	pending := t.pending
	t.mode, t.target, t.pending = serving, "", nil
	t.ownEpoch, t.quota, t.gates = epoch, fences, nil
	if t.installed != nil {
		close(t.installed)
		t.installed = nil
	}
	if first != "" {
		for _, e := range pending {
			if e.src == first {
				t.decide(e, false)
			}
		}
	}
	for _, e := range pending {
		if first == "" || e.src != first {
			t.decide(e, false)
		}
	}
	return t.openDrain(true)
}

// HeldLen reports how many arrivals the hold or the install buffer keeps.
func (t *Thread) HeldLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held) + len(t.pending)
}

// decide is the one place an arrival's fate is chosen. fresh marks the
// caller's own arriving item, which it can deliver itself; anything else
// (admitted from a buffer) can only join the ready queue.
func (t *Thread) decide(e entry, fresh bool) (Verdict, string) {
	switch t.mode {
	case forwarding:
		return Forward, t.target
	case expecting:
		t.pending = append(t.pending, e)
		return Buffered, ""
	}
	if e.fence {
		return t.closeGate(e), ""
	}
	if e.lane == Direct && t.quota > 0 {
		if g := t.gate(e.src); !g.closed {
			g.buf = append(g.buf, e)
			return Buffered, ""
		}
	}
	return t.settle(e, fresh), ""
}

// settle places an item whose order against every other item of its sender
// is decided: it is next in line for the instance, or for the next owner.
func (t *Thread) settle(e entry, fresh bool) Verdict {
	if t.mode == holding && (t.through == nil || !t.through(e.item)) {
		t.held = append(t.held, e)
		return Held
	}
	if t.draining || !fresh {
		t.ready = append(t.ready, e.item)
		return Buffered
	}
	t.delivering++
	return Deliver
}

// closeGate applies a closing fence at the thread's owner.
func (t *Thread) closeGate(e entry) Verdict {
	if t.mode == holding && e.epoch > t.holdEpoch {
		// A fence of the move in progress: it closes the sender's stream to
		// this node and travels behind it to the next owner.
		t.held = append(t.held, e)
		return Held
	}
	if t.quota == 0 || e.epoch != t.ownEpoch {
		return Absorbed
	}
	g := t.gate(e.src)
	if g.closed {
		return Absorbed
	}
	g.closed = true
	t.quota--
	t.release(g)
	if t.quota == 0 {
		// Every stream the flip cut has closed, so nothing stale is in flight
		// any more: a sender the flip did not count (a node attached since)
		// never had a stale stream to wait for.
		for _, g := range t.gates {
			t.release(g)
		}
		t.gates = nil
	}
	return Absorbed
}

func (t *Thread) release(g *gate) {
	buf := g.buf
	g.buf = nil
	for _, e := range buf {
		t.settle(e, false)
	}
}

func (t *Thread) gate(src string) *gate {
	g := t.gates[src]
	if g == nil {
		if t.gates == nil {
			t.gates = make(map[string]*gate)
		}
		g = new(gate)
		t.gates[src] = g
	}
	return g
}

// openDrain hands the ready queue to the caller as a batch, unless a drain
// is already open (its owner's Next picks the queue up). always opens the
// drain even with nothing ready.
func (t *Thread) openDrain(always bool) []any {
	if t.draining || (len(t.ready) == 0 && !always) {
		return nil
	}
	t.draining = true
	return t.takeReady()
}

func (t *Thread) takeReady() []any {
	batch := t.ready
	if batch == nil {
		batch = []any{}
	}
	t.ready = nil
	t.delivering += len(batch)
	return batch
}
