// Package sched is the intra-node scheduling layer of the DPS engine: it
// owns the per-thread-instance dispatch queues, the FIFO execution tickets
// that keep operation executions in token-arrival order, and the goroutines
// that pop queued executions and run them.
//
// Every engine goroutine comes from one place, Scheduler.start, and is warm:
// a worker that runs out of work parks itself on the scheduler's free list
// instead of exiting, and start hands the next queue to the most recently
// parked worker (LIFO, so the stack it has already grown and the cache lines
// it last touched are the ones reused). Only when no worker is parked does
// start create a goroutine; at most maxIdle stay parked, and Close releases
// them. Request/response traffic delivers tokens one at a time, so an
// instance's queue goes empty -> non-empty on nearly every token: each such
// burst costs a channel send to a parked worker, not a new goroutine whose
// 2 KiB stack is copied three or four times on its way down to the socket.
//
// There is one dispatch mechanism: an instance with pending work holds one
// worker as its drainer until its queue is empty, and the Go runtime spreads
// the runnable drainers over the cores. The queue is not bounded here; the
// tokens in flight are bounded by the flow-control window and the admission
// budget, and a queued entry is far smaller than a goroutine blocked on its
// ticket would be.
//
// The paper's progress-while-stalled semantics hold because an operation
// that is about to block relinquishes the drainer role first
// (Instance.Relinquish), so queued executions keep flowing while it waits.
// A drainer that finds its queue empty runs the scheduler's idle step before
// it gives up the role, if an execution it ran asked for it
// (Instance.WantIdle), and then looks at the queue again. The engine's idle
// step lets go of the frames its executions corked in the transport, so a
// drainer's run of executions leaves in as few socket writes as the queue
// allows, and a drainer that asked for nothing never runs it.
//
// Per-instance FIFO ordering is guaranteed by the tickets, which are
// reserved under the queue lock at enqueue time: queue order and lock grant
// order always agree. A ticket is a sequence number on the instance's
// FIFOLock — the n-th reservation owns the lock after n unlocks — so
// reserving behind a running operation, the steady state of a streaming
// drainer, allocates nothing; a channel exists only for a Wait whose turn has
// not come (Stats.TicketWaits counts those).
package sched

import (
	"sync"
	"sync/atomic"
)

// maxIdle bounds the workers parked on one scheduler's free list; a worker
// that finishes while that many are already parked exits instead. It only
// has to cover the goroutines a node needs at once in steady state (one per
// instance with work, plus those blocked inside operations), and a parked
// worker costs one stack. DESIGN.md's scheduler bullet has the sweep behind it.
const maxIdle = 16

// Config is empty; it stays because internal/perf compiles against it
// (ROADMAP item 1(a)).
type Config struct{}

// RunFunc executes one queued item. tk is the item's FIFO execution ticket
// (the runner waits on it before entering the operation body). The calling
// goroutine holds the item's instance drainer role, and the return value
// reports whether it still does afterwards (an operation that blocked
// mid-execution hands the role off and returns false). fromDrainer is always
// true; it stays because internal/perf compiles against it (ROADMAP item 1(a)).
type RunFunc[T any] func(it T, tk Ticket, fromDrainer bool) bool

// Stats are cumulative counters of one scheduler.
type Stats struct {
	// QueueHighWater is the deepest per-instance dispatch queue observed.
	QueueHighWater int64
	// Handoffs counts drainer-role handoffs (an operation blocked and
	// relinquished the role before waiting).
	Handoffs int64
	// WorkersStarted counts the goroutines the scheduler created: drainers
	// for which no parked worker was available (every drainer, after Close).
	WorkersStarted int64
	// TicketWaits counts the executions that had to block for their FIFO
	// ticket: everything else found its turn already come.
	TicketWaits int64
}

// Scheduler dispatches work items onto per-instance FIFO queues and drains
// each non-empty queue on a worker of its own.
type Scheduler[T any] struct {
	run      RunFunc[T]
	idleStep func() // the drainers' idle step (Instance.WantIdle)

	queueHighWater atomic.Int64
	handoffs       atomic.Int64
	workersStarted atomic.Int64
	ticketWaits    atomic.Int64
	pending        atomic.Int64

	// The free list of parked workers, most recently parked last. Each
	// entry is the one-slot channel its worker is receiving from.
	idleMu sync.Mutex
	idle   []chan *Instance[T]
	closed bool
}

// Fifo is a queue popped by head index: the backing array is reused from
// the start whenever the queue empties, so bursts that drain completely (the
// request/response pattern) never reallocate it. The zero value is an empty
// queue; it is not safe for concurrent use. The dispatch queues are Fifos,
// and so is the engine's per-group merge buffer.
type Fifo[E any] struct {
	buf  []E
	head int
}

// Len returns the number of queued elements.
func (q *Fifo[E]) Len() int { return len(q.buf) - q.head }

// Push appends e behind everything queued.
func (q *Fifo[E]) Push(e E) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// A queue that never empties: slide the live half down instead of
		// letting append carry the popped prefix into a larger array.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

// Pop removes the oldest element; the queue must not be empty.
func (q *Fifo[E]) Pop() E {
	var zero E
	e := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// Detach empties the queue and returns its backing array, length zero and
// every slot cleared, for another queue to Adopt; q keeps no reference to it.
func (q *Fifo[E]) Detach() []E {
	clear(q.buf)
	buf := q.buf[:0]
	q.buf, q.head = nil, 0
	return buf
}

// Adopt makes an empty queue start from buf's array (one Detach returned)
// instead of allocating its own on the first Push.
func (q *Fifo[E]) Adopt(buf []E) {
	q.buf, q.head = buf[:0], 0
}

// entry is one queued execution with its pre-reserved ticket.
type entry[T any] struct {
	it T
	tk Ticket
}

// Instance is the scheduling state of one thread instance: its dispatch
// queue and the FIFO lock serializing the operation bodies that run on it.
type Instance[T any] struct {
	sched *Scheduler[T]

	lock FIFOLock

	mu       sync.Mutex
	queue    Fifo[entry[T]]
	draining bool // a goroutine owns the right to pop this queue
	// wantIdle asks for the scheduler's idle step before the drainer role
	// is given up. It belongs to the role: only its holder reads or writes
	// it, and it is false whenever nobody holds the role.
	wantIdle bool
}

// New creates a scheduler executing items with run. The Config argument stays
// because internal/perf compiles against it (ROADMAP item 1(a)).
func New[T any](_ Config, run RunFunc[T]) *Scheduler[T] {
	s := new(Scheduler[T])
	s.Init(run, nil)
	return s
}

// Init initializes an embedded (zero-valued) scheduler in place. idle is
// the drainers' idle step (Instance.WantIdle); it may be nil only if no
// execution asks for it.
func (s *Scheduler[T]) Init(run RunFunc[T], idle func()) { s.run, s.idleStep = run, idle }

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler[T]) Stats() Stats {
	return Stats{
		QueueHighWater: s.queueHighWater.Load(),
		Handoffs:       s.handoffs.Load(),
		WorkersStarted: s.workersStarted.Load(),
		TicketWaits:    s.ticketWaits.Load(),
	}
}

// Pending reports the number of items currently sitting in the scheduler's
// dispatch queues: enqueued but not yet popped by a drainer, which is every
// item waiting for its thread. A live saturation gauge (not a cumulative
// counter) for exporters.
func (s *Scheduler[T]) Pending() int64 {
	return s.pending.Load()
}

// start drains inst, whose drainer role the caller holds, on a goroutine: the
// most recently parked worker if there is one, a new goroutine otherwise. It
// never blocks.
func (s *Scheduler[T]) start(inst *Instance[T]) {
	s.idleMu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.idleMu.Unlock()
		w <- inst // one slot, and only the goroutine that popped w sends on it
		return
	}
	s.idleMu.Unlock()
	s.workersStarted.Add(1)
	go s.work(inst)
}

// work is a worker goroutine: it drains its instance, parks on the free list
// and drains the next one it is handed, until the list is full or closed.
func (s *Scheduler[T]) work(inst *Instance[T]) {
	var w chan *Instance[T]
	for {
		s.drainLoop(inst)
		if w == nil {
			w = make(chan *Instance[T], 1)
		}
		s.idleMu.Lock()
		if s.closed || len(s.idle) >= maxIdle {
			s.idleMu.Unlock()
			return
		}
		s.idle = append(s.idle, w)
		s.idleMu.Unlock()
		var ok bool
		if inst, ok = <-w; !ok {
			return
		}
	}
}

// Close ends every parked worker and stops workers from parking: a busy
// worker exits when its queue is drained. Work that arrives afterwards still
// runs, each drainer on a goroutine of its own.
func (s *Scheduler[T]) Close() {
	s.idleMu.Lock()
	s.closed = true
	idle := s.idle
	s.idle = nil
	s.idleMu.Unlock()
	for _, w := range idle {
		close(w)
	}
}

// NewInstance creates an instance. The ignored argument stays because
// internal/perf compiles against it (ROADMAP item 1(a)).
func (s *Scheduler[T]) NewInstance(int) *Instance[T] {
	inst := new(Instance[T])
	s.InitInstance(inst)
	return inst
}

// InitInstance initializes an embedded (zero-valued) instance in place,
// avoiding a separate allocation for containers that hold one per thread.
func (s *Scheduler[T]) InitInstance(inst *Instance[T]) {
	inst.sched = s
	inst.lock.blocked = &s.ticketWaits
}

// Lock acquires the instance's FIFO execution lock with a fresh reservation,
// behind every already-queued ticket. It is the reacquire half of a blocking
// point; the drainer role is deliberately not re-taken.
func (inst *Instance[T]) Lock() { inst.lock.Lock() }

// Unlock releases the instance's FIFO execution lock.
func (inst *Instance[T]) Unlock() { inst.lock.Unlock() }

// Enqueue reserves the execution ticket and queues the item, starting a
// drainer if no goroutine currently holds the instance's drainer role.
func (inst *Instance[T]) Enqueue(it T) {
	s := inst.sched
	inst.mu.Lock()
	inst.queue.Push(entry[T]{it: it, tk: inst.lock.Reserve()})
	s.pending.Add(1)
	s.noteDepth(int64(inst.queue.Len()))
	spawn := !inst.draining
	inst.draining = true
	inst.mu.Unlock()
	if spawn {
		s.start(inst)
	}
}

// WantIdle asks the drainer to run the scheduler's idle step when it next
// finds the queue empty, before it gives up the role. Only the holder of the
// drainer role calls it, from an execution it runs.
func (inst *Instance[T]) WantIdle() { inst.wantIdle = true }

// TakeIdle withdraws the request WantIdle made, reporting whether there was
// one: a holder of the drainer role that is about to give it up runs the
// idle step itself. Only the holder of the role calls it.
func (inst *Instance[T]) TakeIdle() bool {
	want := inst.wantIdle
	inst.wantIdle = false
	return want
}

// Relinquish hands the drainer role off before the holder blocks: queued
// work continues on another worker, an empty queue just releases the role
// for the next enqueue. Callers must invoke it before releasing the
// instance's execution lock at a blocking point, and only while they hold
// the drainer role.
func (inst *Instance[T]) Relinquish() {
	s := inst.sched
	s.handoffs.Add(1)
	inst.mu.Lock()
	if inst.queue.Len() > 0 {
		inst.mu.Unlock()
		s.start(inst)
		return
	}
	inst.draining = false
	inst.mu.Unlock()
}

// drainLoop pops queued executions of one instance and runs them inline,
// starting with the drainer role held, until the queue is empty or the
// calling goroutine lost the role to a successor (an operation blocked
// mid-execution and handed it off). An empty queue first gets the idle step,
// if one was asked for, run with the role still held so that the next
// execution of the instance cannot start before it; the queue is then looked
// at again.
func (s *Scheduler[T]) drainLoop(inst *Instance[T]) {
	for {
		inst.mu.Lock()
		if inst.queue.Len() == 0 {
			if !inst.wantIdle {
				inst.draining = false
				inst.mu.Unlock()
				return
			}
			inst.mu.Unlock()
			inst.wantIdle = false
			s.idleStep()
			continue
		}
		e := inst.queue.Pop()
		inst.mu.Unlock()
		s.pending.Add(-1)
		if s.run(e.it, e.tk, true) {
			continue
		}
		// The operation relinquished: reclaim the role unless a successor
		// drainer is active.
		inst.mu.Lock()
		if inst.draining {
			inst.mu.Unlock()
			return
		}
		inst.draining = true
		inst.mu.Unlock()
	}
}

// noteDepth records a queue-depth observation in the high-water mark.
func (s *Scheduler[T]) noteDepth(depth int64) {
	for {
		cur := s.queueHighWater.Load()
		if depth <= cur || s.queueHighWater.CompareAndSwap(cur, depth) {
			return
		}
	}
}
