// Package flowctl is the flow-control layer of the DPS engine: it decides
// how many tokens of one split–merge group may circulate unacknowledged
// (the paper's flow-control feedback) and tracks the per-thread outstanding
// counts that feed the load-balancing routing functions.
//
// A Policy creates one Gate per open split group. The engine acquires a
// slot on the gate for every posted token and releases one for every
// consumption acknowledgement arriving from the paired merge; the Window
// policy blocks posts while the window is exhausted, Unbounded never
// blocks but still counts tokens in flight (the count drives group
// reaping).
package flowctl

import (
	"context"
	"fmt"
	"sync"
)

// Policy selects the flow-control discipline applied to each split group.
type Policy interface {
	// Name identifies the policy in stats dumps and errors.
	Name() string
	// NewGate creates the in-flight tracker of one split group.
	NewGate() Gate
}

// Gate tracks the tokens in flight of one split group on the split side.
type Gate interface {
	// TryAcquire reserves a slot for one posted token without blocking,
	// reporting whether it succeeded. It is the allocation-free fast path
	// of the posting loop; on failure the poster falls back to Acquire.
	TryAcquire() bool
	// Acquire reserves a slot for one posted token, blocking while the
	// policy's window is exhausted. A non-nil ctx makes the wait
	// cancellable: cancellation wakes the waiter and aborts the
	// acquisition with ctx.Err(). onStall is invoked once, before the
	// first wait (the engine releases the poster's execution lock and
	// counts the stall there); failed is consulted after every wake-up and
	// a non-nil result aborts the acquisition, returned as err. stalled
	// reports whether the call blocked at all.
	Acquire(ctx context.Context, onStall func(), failed func() error) (stalled bool, err error)
	// Release returns one slot (one token of the group was consumed).
	Release()
	// Quiescent reports that no tokens are in flight.
	Quiescent() bool
	// Wake unblocks pending Acquires so they can observe a failure.
	Wake()
}

// Window is the paper's credit-window policy: at most N tokens of a group
// unacknowledged at any time. N <= 0 selects DefaultWindow.
type Window struct {
	N int
}

// DefaultWindow is the default per-split flow-control window.
const DefaultWindow = 64

func (w Window) size() int {
	if w.N > 0 {
		return w.N
	}
	return DefaultWindow
}

// Name implements Policy.
func (w Window) Name() string { return fmt.Sprintf("window(%d)", w.size()) }

// NewGate implements Policy.
func (w Window) NewGate() Gate {
	g := &windowGate{n: w.size()}
	g.cond.L = &g.mu
	return g
}

type windowGate struct {
	mu       sync.Mutex
	cond     sync.Cond
	n        int
	inflight int
}

func (g *windowGate) TryAcquire() bool {
	g.mu.Lock()
	if g.inflight < g.n {
		g.inflight++
		g.mu.Unlock()
		return true
	}
	g.mu.Unlock()
	return false
}

func (g *windowGate) Acquire(ctx context.Context, onStall func(), failed func() error) (stalled bool, err error) {
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
			if err := ctx.Err(); err != nil {
				return err
			}
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

func (g *windowGate) Release() {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *windowGate) Quiescent() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight == 0
}

func (g *windowGate) Wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Unbounded applies no backpressure: posts never block, tokens in flight
// are still counted so the engine can reap completed groups. It reproduces
// the runtime's behaviour before flow control, useful as a baseline and
// for workloads whose group sizes are intrinsically bounded.
type Unbounded struct{}

// Name implements Policy.
func (Unbounded) Name() string { return "unbounded" }

// NewGate implements Policy.
func (Unbounded) NewGate() Gate { return &unboundedGate{} }

type unboundedGate struct {
	mu       sync.Mutex
	inflight int
}

func (g *unboundedGate) TryAcquire() bool {
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
	return true
}

func (g *unboundedGate) Acquire(ctx context.Context, onStall func(), failed func() error) (bool, error) {
	g.TryAcquire()
	return false, nil
}

func (g *unboundedGate) Release() {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.mu.Unlock()
}

func (g *unboundedGate) Quiescent() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight == 0
}

func (g *unboundedGate) Wake() {}

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
