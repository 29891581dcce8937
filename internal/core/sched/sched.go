// Package sched is the intra-node scheduling layer of the DPS engine: it
// owns the per-thread-instance dispatch queues, the FIFO execution tickets
// that keep operation executions in token-arrival order, and the goroutines
// that pop queued executions and run them.
//
// Every engine goroutine comes from one place, Scheduler.start, and is warm:
// a worker that runs out of work parks itself on the scheduler's free list
// instead of exiting, and start hands the next job to the most recently
// parked worker (LIFO, so the stack it has already grown and the cache lines
// it last touched are the ones reused). Only when no worker is parked does
// start create a goroutine; at most maxIdle stay parked, and Close releases
// them. Request/response traffic delivers tokens one at a time, so an
// instance's queue goes empty -> non-empty on nearly every token: each such
// burst costs a channel send to a parked worker, not a new goroutine whose
// 2 KiB stack is copied three or four times on its way down to the socket.
//
// Two execution modes are provided:
//
//   - direct (Workers <= 1): each instance with pending work holds one
//     worker as its drainer until its queue is empty;
//   - sharded (Workers = N > 1): instances are statically assigned to N
//     shards and runnable instances queue on their shard, so at most N
//     unblocked workers run concurrently (workers blocked inside operations
//     have already handed their role off).
//
// In both modes the paper's progress-while-stalled semantics hold: an
// operation that is about to block relinquishes the drainer role first
// (Instance.Relinquish), so queued executions keep flowing while it waits.
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

// DefaultQueueCap bounds the per-instance dispatch queue when Config.QueueCap
// is zero. Beyond it the scheduler degrades to one worker per token rather
// than blocking the poster (the per-split flow-control window is the real
// bound on tokens in flight; this is a memory backstop).
const DefaultQueueCap = 1024

// maxIdle bounds the workers parked on one scheduler's free list; a worker
// that finishes while that many are already parked exits instead. It only
// has to cover the goroutines a node needs at once in steady state (one per
// instance with work, plus those blocked inside operations), and a parked
// worker costs one stack. DESIGN.md's scheduler bullet has the sweep behind it.
const maxIdle = 16

// Config tunes a Scheduler.
type Config struct {
	// Workers selects the execution mode: <= 1 gives each runnable instance
	// its own drainer; > 1 multiplexes runnable instances onto that many
	// shard workers.
	Workers int
	// QueueCap bounds each instance's dispatch queue; zero selects
	// DefaultQueueCap.
	QueueCap int
}

// RunFunc executes one queued item. tk is the item's FIFO execution ticket
// (the runner waits on it before entering the operation body); fromDrainer
// reports whether the calling goroutine holds the item's instance drainer
// role, and the return value reports whether it still does afterwards (an
// operation that blocked mid-execution hands the role off and returns
// false).
type RunFunc[T any] func(it T, tk Ticket, fromDrainer bool) bool

// Stats are cumulative counters of one scheduler.
type Stats struct {
	// QueueHighWater is the deepest per-instance dispatch queue observed.
	QueueHighWater int64
	// Handoffs counts drainer-role handoffs (an operation blocked and
	// relinquished the role before waiting).
	Handoffs int64
	// WorkersStarted counts the goroutines the scheduler created: jobs for
	// which no parked worker was available (every job, after Close).
	WorkersStarted int64
	// TicketWaits counts the executions that had to block for their FIFO
	// ticket: everything else found its turn already come.
	TicketWaits int64
}

// Scheduler dispatches work items onto per-instance FIFO queues and drains
// them according to the configured execution mode.
type Scheduler[T any] struct {
	run      RunFunc[T]
	queueCap int
	shards   []shard[T] // empty in direct mode

	queueHighWater atomic.Int64
	handoffs       atomic.Int64
	workersStarted atomic.Int64
	ticketWaits    atomic.Int64
	pending        atomic.Int64

	// The free list of parked workers, most recently parked last. Each
	// entry is the one-slot channel its worker is receiving from.
	idleMu sync.Mutex
	idle   []chan job[T]
	closed bool
}

// job is what a worker goroutine is started or woken to do. Exactly one of
// the three is set.
type job[T any] struct {
	inst *Instance[T] // drain this instance, drainer role already held
	sh   *shard[T]    // serve this shard, worker role already held
	e    *entry[T]    // run this one item off-queue, without the drainer role
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

// shard is one intra-node execution lane of the sharded mode: a queue of
// runnable instances plus the worker role, held by at most one unblocked
// goroutine at a time.
type shard[T any] struct {
	mu     sync.Mutex
	runq   Fifo[*Instance[T]]
	active bool
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
	sh    *shard[T] // nil in direct mode

	lock FIFOLock

	mu       sync.Mutex
	queue    Fifo[entry[T]]
	draining bool // a goroutine owns the right to pop this queue
	queued   bool // sharded mode: instance sits on its shard's run queue
}

// New creates a scheduler executing items with run.
func New[T any](cfg Config, run RunFunc[T]) *Scheduler[T] {
	s := new(Scheduler[T])
	s.Init(cfg, run)
	return s
}

// Init initializes an embedded (zero-valued) scheduler in place.
func (s *Scheduler[T]) Init(cfg Config, run RunFunc[T]) {
	s.run = run
	s.queueCap = cfg.QueueCap
	if s.queueCap <= 0 {
		s.queueCap = DefaultQueueCap
	}
	if cfg.Workers > 1 {
		s.shards = make([]shard[T], cfg.Workers)
	}
}

// Workers returns the number of shard workers (1 for the direct mode).
func (s *Scheduler[T]) Workers() int {
	if len(s.shards) == 0 {
		return 1
	}
	return len(s.shards)
}

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
// dispatch queues: enqueued but not yet popped by a drainer. A live
// saturation gauge (not a cumulative counter) for exporters; items that
// overflow onto their own worker are not queued and not counted.
func (s *Scheduler[T]) Pending() int64 {
	return s.pending.Load()
}

// start runs j on a goroutine: the most recently parked worker if there is
// one, a new goroutine otherwise. It never blocks.
func (s *Scheduler[T]) start(j job[T]) {
	s.idleMu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.idleMu.Unlock()
		w <- j // one slot, and only the goroutine that popped w sends on it
		return
	}
	s.idleMu.Unlock()
	s.workersStarted.Add(1)
	go s.work(j)
}

// work is a worker goroutine: it does its job, parks on the free list and
// does the next one it is handed, until the list is full or closed.
func (s *Scheduler[T]) work(j job[T]) {
	var w chan job[T]
	for {
		switch {
		case j.inst != nil:
			s.drainLoop(j.inst)
		case j.sh != nil:
			s.shardLoop(j.sh)
		default:
			s.run(j.e.it, j.e.tk, false)
		}
		if w == nil {
			w = make(chan job[T], 1)
		}
		s.idleMu.Lock()
		if s.closed || len(s.idle) >= maxIdle {
			s.idleMu.Unlock()
			return
		}
		s.idle = append(s.idle, w)
		s.idleMu.Unlock()
		var ok bool
		if j, ok = <-w; !ok {
			return
		}
	}
}

// Close ends every parked worker and stops workers from parking: a busy
// worker exits when its job is done. Work that arrives afterwards still
// runs, each job on a goroutine of its own.
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

// NewInstance creates an instance; key selects its shard in sharded mode
// (instances with equal keys modulo Workers share a lane).
func (s *Scheduler[T]) NewInstance(key int) *Instance[T] {
	inst := new(Instance[T])
	s.InitInstance(inst, key)
	return inst
}

// InitInstance initializes an embedded (zero-valued) instance in place,
// avoiding a separate allocation for containers that hold one per thread.
func (s *Scheduler[T]) InitInstance(inst *Instance[T], key int) {
	inst.sched = s
	inst.lock.blocked = &s.ticketWaits
	if n := len(s.shards); n > 0 {
		if key < 0 {
			key = -key
		}
		inst.sh = &s.shards[key%n]
	}
}

// Lock acquires the instance's FIFO execution lock with a fresh reservation,
// behind every already-queued ticket. It is the reacquire half of a blocking
// point; the drainer role is deliberately not re-taken.
func (inst *Instance[T]) Lock() { inst.lock.Lock() }

// Unlock releases the instance's FIFO execution lock.
func (inst *Instance[T]) Unlock() { inst.lock.Unlock() }

// Enqueue reserves the execution ticket and queues the item, making the
// instance runnable if no goroutine currently holds its drainer role. When
// the queue is at capacity the item instead runs on a worker of its own (the
// ticket still serializes it in order).
func (inst *Instance[T]) Enqueue(it T) {
	s := inst.sched
	inst.mu.Lock()
	tk := inst.lock.Reserve()
	if inst.queue.Len() >= s.queueCap {
		inst.mu.Unlock()
		s.start(job[T]{e: &entry[T]{it: it, tk: tk}})
		return
	}
	inst.queue.Push(entry[T]{it: it, tk: tk})
	s.pending.Add(1)
	s.noteDepth(int64(inst.queue.Len()))
	if inst.sh == nil {
		spawn := !inst.draining
		if spawn {
			inst.draining = true
		}
		inst.mu.Unlock()
		if spawn {
			s.start(job[T]{inst: inst})
		}
		return
	}
	signal := !inst.draining && !inst.queued
	if signal {
		inst.queued = true
	}
	inst.mu.Unlock()
	if signal {
		s.pushRunnable(inst)
	}
}

// Relinquish hands the drainer role off before the holder blocks: queued
// work continues on another worker, an empty queue just releases the role
// for the next enqueue. Callers must invoke it before releasing the
// instance's execution lock at a blocking point, and only while they hold
// the drainer role.
func (inst *Instance[T]) Relinquish() {
	s := inst.sched
	s.handoffs.Add(1)
	if inst.sh == nil {
		inst.mu.Lock()
		if inst.queue.Len() > 0 {
			inst.mu.Unlock()
			s.start(job[T]{inst: inst})
			return
		}
		inst.draining = false
		inst.mu.Unlock()
		return
	}
	// Sharded: give up the instance-drainer role, requeue the instance if
	// it still has work, then pass the shard-worker role to a successor
	// (the caller is about to block inside an operation).
	inst.mu.Lock()
	inst.draining = false
	requeue := inst.queue.Len() > 0 && !inst.queued
	if requeue {
		inst.queued = true
	}
	inst.mu.Unlock()
	sh := inst.sh
	sh.mu.Lock()
	if requeue {
		sh.runq.Push(inst)
	}
	if sh.runq.Len() == 0 {
		sh.active = false
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	s.start(job[T]{sh: sh})
}

// pushRunnable queues an instance on its shard and makes sure a worker is
// serving the shard.
func (s *Scheduler[T]) pushRunnable(inst *Instance[T]) {
	sh := inst.sh
	sh.mu.Lock()
	sh.runq.Push(inst)
	spawn := !sh.active
	if spawn {
		sh.active = true
	}
	sh.mu.Unlock()
	if spawn {
		s.start(job[T]{sh: sh})
	}
}

// shardLoop serves a shard with the worker role held: it pops runnable
// instances and drains them inline until the shard is idle or the role was
// handed off mid-operation (drainLoop returning false).
func (s *Scheduler[T]) shardLoop(sh *shard[T]) {
	for {
		sh.mu.Lock()
		if sh.runq.Len() == 0 {
			sh.active = false
			sh.mu.Unlock()
			return
		}
		inst := sh.runq.Pop()
		sh.mu.Unlock()
		inst.mu.Lock()
		inst.queued = false
		if inst.draining || inst.queue.Len() == 0 {
			inst.mu.Unlock()
			continue
		}
		inst.draining = true
		inst.mu.Unlock()
		if !s.drainLoop(inst) {
			// An operation blocked; Relinquish started a successor (or
			// idled the shard), so this worker is done with it.
			return
		}
	}
}

// drainLoop pops queued executions of one instance and runs them inline,
// starting with the drainer role held. It returns true once the queue is
// empty, or false if the calling goroutine lost the role to a successor (an
// operation blocked mid-execution and handed it off).
func (s *Scheduler[T]) drainLoop(inst *Instance[T]) bool {
	for {
		inst.mu.Lock()
		if inst.queue.Len() == 0 {
			inst.draining = false
			inst.mu.Unlock()
			return true
		}
		e := inst.queue.Pop()
		inst.mu.Unlock()
		s.pending.Add(-1)
		if inst.sh != nil && !e.tk.granted() {
			// Sharded mode: the instance's execution lock is held by an
			// earlier operation still running (e.g. one that blocked,
			// reacquired and is now computing). Parking this worker in
			// tk.Wait would starve every other instance of the lane, so the
			// item runs on a worker of its own (the ticket keeps it in FIFO
			// order) and the lane moves on.
			off := e // a copy, so that only this path's entry escapes
			s.start(job[T]{e: &off})
			continue
		}
		if s.run(e.it, e.tk, true) {
			continue
		}
		if inst.sh != nil {
			// Sharded mode: the relinquish already requeued the instance if
			// needed; the popped-queue invariant belongs to the successor.
			return false
		}
		// Direct mode: reclaim the role unless a successor drainer is
		// active.
		inst.mu.Lock()
		if inst.draining {
			inst.mu.Unlock()
			return false
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
