// Package flowctl is the flow-control layer of the DPS engine: it bounds how
// many tokens of one split–merge group may circulate unacknowledged (the
// paper's flow-control feedback) and tracks the per-thread outstanding
// counts that feed the load-balancing routing functions.
//
// Every open split group has one Gate, a credit window. The engine acquires
// a slot on it for every posted token and releases one for every
// consumption acknowledgement arriving from the paired merge; a post blocks
// while the window is exhausted. A gate has exactly one poster — the
// goroutine running the opener's body — so at most one Acquire ever waits
// on it and there is no order among waiters to choose.
package flowctl

import (
	"context"
	"sync"
)

// DefaultWindow is the default per-split flow-control window.
const DefaultWindow = 64

// Window is the paper's credit window: at most N tokens of a group
// unacknowledged at any time. N <= 0 selects DefaultWindow.
type Window struct {
	N int
}

// NewGate returns a fresh gate of this window.
func (w Window) NewGate() *Gate {
	g := new(Gate)
	g.Init(w.N)
	return g
}

// Gate tracks the tokens in flight of one split group on the split side.
// Init it before use (Window.NewGate does) and do not copy it afterwards;
// the engine embeds one in each split group.
type Gate struct {
	mu       sync.Mutex
	cond     sync.Cond
	n        int
	inflight int
}

// Init sets the window of a fresh gate to n tokens; n <= 0 selects
// DefaultWindow.
func (g *Gate) Init(n int) {
	if n <= 0 {
		n = DefaultWindow
	}
	g.n = n
	g.cond.L = &g.mu
}

// TryAcquire reserves a slot for one posted token without blocking,
// reporting whether it succeeded. It is the allocation-free fast path of the
// posting loop; on failure the poster falls back to Acquire.
func (g *Gate) TryAcquire() bool {
	g.mu.Lock()
	ok := g.inflight < g.n
	if ok {
		g.inflight++
	}
	g.mu.Unlock()
	return ok
}

// Acquire reserves a slot for one posted token, blocking while the window is
// exhausted. A non-nil ctx makes the wait cancellable: cancellation wakes the
// waiter and aborts the acquisition with ctx.Err(). onStall is invoked once,
// before the first wait (the engine releases the poster's execution lock and
// counts the stall there); failed is consulted before every wait and a
// non-nil result aborts the acquisition, returned as err. stalled reports
// whether the call blocked at all.
func (g *Gate) Acquire(ctx context.Context, onStall func(), failed func() error) (stalled bool, err error) {
	// Cancellation has no channel to select on inside a cond wait; instead
	// the context wakes the gate when it fires and the loop consults
	// ctx.Err() alongside failed.
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, g.Wake)
		defer stop()
	}
	aborted := func() error {
		if failed != nil {
			if err := failed(); err != nil {
				return err
			}
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	g.mu.Lock()
	for g.inflight >= g.n {
		// Consult aborted before every wait, not only after wake-ups: a
		// poster entering an exhausted window after the application already
		// failed (or its call was canceled) would otherwise park forever
		// (acks have stopped and the wake broadcast has already happened).
		if err := aborted(); err != nil {
			g.mu.Unlock()
			return stalled, err
		}
		if !stalled {
			stalled = true
			if onStall != nil {
				onStall()
			}
		}
		g.cond.Wait()
	}
	// One final consultation before taking the slot: a wake-up can race a
	// concurrent Release with the abort broadcast, and a failed poster must
	// unwind rather than push another token into a failed application.
	if err := aborted(); err != nil {
		g.mu.Unlock()
		return stalled, err
	}
	g.inflight++
	g.mu.Unlock()
	return stalled, nil
}

// Release returns one slot (one token of the group was consumed). Extra
// releases clamp at zero.
func (g *Gate) Release() {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Quiescent reports that no tokens are in flight.
func (g *Gate) Quiescent() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight == 0
}

// Wake unblocks a pending Acquire so it can observe a failure.
func (g *Gate) Wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Credits counts tokens dispatched to each thread of a collection and not
// yet acknowledged by the downstream merge — the feedback information the
// paper uses for load balancing. The counter slice is sized once from the
// collection's cardinality at creation; Charge only grows it in the
// exceptional case of a collection remapped wider afterwards.
type Credits struct {
	mu  sync.Mutex
	out []int
	// outstanding is the Outstanding method value, bound once here: a
	// routing function receives it with every token it routes.
	outstanding func(i int) int
}

// NewCredits creates a tracker presized to threads counters.
func NewCredits(threads int) *Credits {
	c := &Credits{out: make([]int, threads)}
	c.outstanding = c.Outstanding
	return c
}

// OutstandingFunc returns Outstanding as a function value, the same one on
// every call.
func (c *Credits) OutstandingFunc() func(i int) int { return c.outstanding }

// Charge records one token dispatched to thread i.
func (c *Credits) Charge(i int) {
	c.mu.Lock()
	for len(c.out) <= i {
		c.out = append(c.out, 0)
	}
	c.out[i]++
	c.mu.Unlock()
}

// Release records one consumption acknowledgement for thread i.
func (c *Credits) Release(i int) {
	c.mu.Lock()
	if i >= 0 && i < len(c.out) && c.out[i] > 0 {
		c.out[i]--
	}
	c.mu.Unlock()
}

// Outstanding returns the number of unacknowledged tokens of thread i.
func (c *Credits) Outstanding(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.out) {
		return 0
	}
	return c.out[i]
}
