package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- FIFOLock ------------------------------------------------------------

func TestFIFOLockMutualExclusion(t *testing.T) {
	var l FIFOLock
	var inCrit atomic.Int32
	var max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Lock()
				if v := inCrit.Add(1); v > max.Load() {
					max.Store(v)
				}
				inCrit.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if max.Load() > 1 {
		t.Fatalf("mutual exclusion violated: %d goroutines in critical section", max.Load())
	}
}

func TestFIFOLockOrder(t *testing.T) {
	var l FIFOLock
	l.Lock()
	const n = 20
	order := make([]int, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	tickets := make([]Ticket, n)
	// Reserve in a known order while the lock is held.
	for i := 0; i < n; i++ {
		tickets[i] = l.Reserve()
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tickets[i].Wait()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock()
		}(i)
	}
	l.Unlock()
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("reservation order violated: %v", order)
		}
	}
}

func TestFIFOLockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l FIFOLock
	l.Unlock()
}

func TestFIFOLockImmediateGrant(t *testing.T) {
	var l FIFOLock
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("uncontended lock did not grant")
	}
}

// TestReserveWhileHeldAllocatesNothing pins the streaming drainer's steady
// state: a reservation made while the lock is held, then granted by the
// holder's unlock before anyone waits on it, creates nothing — no channel
// (it would never be waited on) and no queue entry.
func TestReserveWhileHeldAllocatesNothing(t *testing.T) {
	var l FIFOLock
	l.Lock()
	if avg := testing.AllocsPerRun(1000, func() {
		tk := l.Reserve() // behind the holder
		l.Unlock()        // the holder finishes: tk's turn
		tk.Wait()         // run
	}); avg != 0 {
		t.Fatalf("reserve-while-held, unlock, run allocates %.2f objects, want 0", avg)
	}
	l.Unlock()
}

// TestTicketsWaitedOutOfOrder has the holders of later tickets start waiting
// first, from goroutines of their own: each is still granted in reservation
// order, whatever order the waits were entered in.
func TestTicketsWaitedOutOfOrder(t *testing.T) {
	var l FIFOLock
	var blocked atomic.Int64
	l.blocked = &blocked
	l.Lock()
	const n = 8
	tickets := make([]Ticket, n)
	for i := range tickets {
		tickets[i] = l.Reserve()
	}
	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tickets[i].Wait()
			order <- i
			l.Unlock()
		}(i)
		// The next goroutine starts only once this one is parked in Wait.
		for want := int64(n - i); blocked.Load() < want; {
			runtime.Gosched()
		}
	}
	l.Unlock()
	wg.Wait()
	for want := 0; want < n; want++ {
		if got := <-order; got != want {
			t.Fatalf("grant %d went to ticket %d", want, got)
		}
	}
	if got := blocked.Load(); got != n {
		t.Fatalf("%d waits counted as blocked, want %d", got, n)
	}
}

// TestGrantedFollowsThePredecessor: a ticket is granted exactly from its
// predecessor's unlock on — a Wait entered before that blocks, one entered
// after it does not — and stays granted once its turn has passed.
func TestGrantedFollowsThePredecessor(t *testing.T) {
	var l FIFOLock
	var blocked atomic.Int64
	l.blocked = &blocked
	first, second, third := l.Reserve(), l.Reserve(), l.Reserve()
	first.Wait() // a fresh lock is the first ticket's
	thirdIn := make(chan struct{})
	go func() {
		third.Wait()
		close(thirdIn)
	}()
	for blocked.Load() != 1 { // third is parked behind two predecessors
		runtime.Gosched()
	}
	l.Unlock()
	second.Wait() // its predecessor has unlocked: must not block
	select {
	case <-thirdIn:
		t.Fatal("third ticket granted while the second holds the lock")
	default:
	}
	l.Unlock()
	<-thirdIn
	l.Unlock()
	first.Wait() // a turn that has passed still reads as granted
	if got := blocked.Load(); got != 1 {
		t.Fatalf("%d waits blocked, want only the third ticket's", got)
	}
}

// TestLockRacingReserve mixes the two ways into the line — dispatch-side
// Reserve with the wait on another goroutine, and Lock from an operation
// reacquiring after a block — and checks mutual exclusion and that every
// entrant gets its turn. Run under -race -cpu 1,2,4.
func TestLockRacingReserve(t *testing.T) {
	var l FIFOLock
	var inCrit, turns atomic.Int32
	enter := func() {
		if inCrit.Add(1) != 1 {
			t.Error("two holders at once")
		}
		turns.Add(1)
		inCrit.Add(-1)
		l.Unlock()
	}
	const goroutines, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Lock()
				enter()
			}
		}()
		go func() {
			defer wg.Done()
			var runners sync.WaitGroup
			for i := 0; i < rounds; i++ {
				tk := l.Reserve()
				runners.Add(1)
				go func() {
					defer runners.Done()
					tk.Wait()
					enter()
				}()
			}
			runners.Wait()
		}()
	}
	wg.Wait()
	if got := turns.Load(); got != 2*goroutines*rounds {
		t.Fatalf("%d turns taken, want %d", got, 2*goroutines*rounds)
	}
}

// --- Scheduler -----------------------------------------------------------

// TestOrderDirect pushes n items through one instance with an engine-style
// runner (wait ticket, record, unlock) and checks execution order matches
// enqueue order.
func TestOrderDirect(t *testing.T) {
	const n = 1000
	r := newRecorder(1, n)
	defer r.s.Close()
	for i := 0; i < n; i++ {
		r.inst[0].Enqueue(i)
	}
	for i := 0; i < n; i++ {
		if got := <-r.ran; got != i {
			t.Fatalf("order violated at %d: got %d", i, got)
		}
	}
}

// TestQueueHighWater checks the depth counter rises with queued work.
func TestQueueHighWater(t *testing.T) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var inst *Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		<-gate
		inst.Unlock()
		wg.Done()
		return fromDrainer
	})
	inst = s.NewInstance(0)
	const n = 10
	wg.Add(n)
	for i := 0; i < n; i++ {
		inst.Enqueue(i)
	}
	close(gate)
	wg.Wait()
	if hw := s.Stats().QueueHighWater; hw < 2 {
		t.Fatalf("queue high-water %d, want >= 2", hw)
	}
}

// --- Warm workers --------------------------------------------------------

// recorder is an engine-style runner (wait ticket, record, unlock) over one
// scheduler; ran carries the executed items, sent while the instance's
// execution lock is still held so that it shows execution order, and must
// have room for every item a test leaves unread.
type recorder struct {
	s    *Scheduler[int]
	inst []*Instance[int] // an item's instance is inst[it%len(inst)]
	ran  chan int
}

func newRecorder(instances, buffered int) *recorder {
	r := &recorder{ran: make(chan int, buffered)}
	r.s = New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		r.ran <- it
		r.inst[it%len(r.inst)].Unlock()
		return fromDrainer
	})
	for i := 0; i < instances; i++ {
		r.inst = append(r.inst, r.s.NewInstance(0))
	}
	return r
}

// parked reports how many workers sit on the scheduler's free list.
func parked[T any](s *Scheduler[T]) int {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	return len(s.idle)
}

// awaitParked waits until exactly n workers are parked.
func awaitParked[T any](t testing.TB, s *Scheduler[T], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parked(s) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked, want %d", parked(s), n)
		}
		runtime.Gosched()
	}
}

// TestBurstsReuseWorkers is the request/response pattern: every item finds
// its instance's queue empty. The goroutines started stay within the idle
// bound however many bursts arrive, and order holds.
func TestBurstsReuseWorkers(t *testing.T) {
	const n = 5000
	r := newRecorder(1, 1)
	for i := 0; i < n; i++ {
		r.inst[0].Enqueue(i)
		if got := <-r.ran; got != i {
			t.Fatalf("burst %d ran item %d", i, got)
		}
	}
	if started := r.s.Stats().WorkersStarted; started < 1 || started > maxIdle {
		t.Fatalf("%d bursts started %d goroutines, want 1..%d", n, started, maxIdle)
	}
	r.s.Close()
	awaitParked(t, r.s, 0)
}

// TestIdleBound checks that more simultaneous workers than the bound do not
// all stay parked.
func TestIdleBound(t *testing.T) {
	const n = 3 * maxIdle
	release := make(chan struct{})
	var wg sync.WaitGroup
	var inst [n]*Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		<-release
		inst[it].Unlock()
		wg.Done()
		return fromDrainer
	})
	wg.Add(n)
	for i := range inst {
		inst[i] = s.NewInstance(0)
		inst[i].Enqueue(i)
	}
	if started := s.Stats().WorkersStarted; started != n {
		t.Fatalf("%d blocked instances hold %d goroutines", n, started)
	}
	close(release)
	wg.Wait()
	awaitParked(t, s, maxIdle)
	s.Close()
	awaitParked(t, s, 0)
}

// TestRelinquishReturnsWorkerToFreeList checks the handoff: an operation that
// relinquishes and blocks with work queued behind it does not strand that
// work, and once it resumes its goroutine parks like any other, so later
// bursts start nothing new.
func TestRelinquishReturnsWorkerToFreeList(t *testing.T) {
	const blocker = 0
	queuedBehind := make(chan struct{})
	release := make(chan struct{})
	ran := make(chan int, 8)
	var inst *Instance[int]
	s := New(Config{}, func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		if it == blocker {
			<-queuedBehind
			if fromDrainer {
				inst.Relinquish()
				fromDrainer = false
			}
			inst.Unlock()
			<-release
			inst.Lock()
		}
		inst.Unlock()
		ran <- it
		return fromDrainer
	})
	inst = s.NewInstance(0)
	inst.Enqueue(blocker)
	for i := 1; i <= 3; i++ {
		inst.Enqueue(i)
	}
	close(queuedBehind)
	for i := 1; i <= 3; i++ {
		select {
		case got := <-ran:
			if got != i {
				t.Fatalf("behind the blocked operation item %d ran, want %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queue stranded behind a blocked operation")
		}
	}
	close(release)
	if got := <-ran; got != blocker {
		t.Fatalf("item %d ran, want the resumed blocker", got)
	}
	awaitParked(t, s, 2)
	for i := 4; i < 100; i++ {
		inst.Enqueue(i)
		<-ran
	}
	st := s.Stats()
	if st.WorkersStarted != 2 || st.Handoffs != 1 {
		t.Fatalf("started %d goroutines over %d handoffs, want 2 over 1", st.WorkersStarted, st.Handoffs)
	}
	s.Close()
	awaitParked(t, s, 0)
}

// TestDeepQueueDrainsOnOneWorker: the dispatch queue has no cap. Ten thousand
// items enqueued behind a held execution lock all sit in the queue (none gets
// a goroutine of its own to block on its ticket), and once the lock frees the
// one drainer runs them in order.
func TestDeepQueueDrainsOnOneWorker(t *testing.T) {
	const n = 10 * 1024
	r := newRecorder(1, n)
	defer r.s.Close()
	r.inst[0].Lock() // an earlier operation still holds the thread
	for i := 0; i < n; i++ {
		r.inst[0].Enqueue(i)
	}
	r.inst[0].Unlock()
	for i := 0; i < n; i++ {
		if got := <-r.ran; got != i {
			t.Fatalf("item %d ran at position %d", got, i)
		}
	}
	awaitParked(t, r.s, 1) // the drainer found its queue empty
	st := r.s.Stats()
	if st.WorkersStarted != 1 || st.TicketWaits > 1 || st.QueueHighWater < 10000 {
		t.Fatalf("started %d goroutines, %d blocked waits, high water %d; want 1, <= 1, >= 10000",
			st.WorkersStarted, st.TicketWaits, st.QueueHighWater)
	}
	if p := r.s.Pending(); p != 0 {
		t.Fatalf("%d items still pending", p)
	}
}

// TestCloseRacingEnqueue checks that Close, whenever it lands, loses no
// item: parked workers end, busy ones finish, later jobs run on plain
// goroutines.
func TestCloseRacingEnqueue(t *testing.T) {
	const producers, each = 4, 2000
	r := newRecorder(producers, producers*each)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.inst[p].Enqueue(i*producers + p)
				if i%64 == 0 {
					runtime.Gosched() // let queues drain: more empty -> non-empty edges
				}
			}
		}(p)
	}
	runtime.Gosched()
	r.s.Close()
	wg.Wait()
	next := make([]int, producers)
	for i := 0; i < producers*each; i++ {
		select {
		case it := <-r.ran:
			p := it % producers
			if it/producers != next[p] {
				t.Fatalf("instance %d ran item %d, want %d", p, it/producers, next[p])
			}
			next[p]++
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d items ran", i, producers*each)
		}
	}
	awaitParked(t, r.s, 0)
}

// TestEnqueueWarmAllocatesNothing pins the burst path's budget: on a warmed
// instance, enqueue -> wake a parked worker -> run -> park again allocates
// nothing (no goroutine, no closure, no queue array).
func TestEnqueueWarmAllocatesNothing(t *testing.T) {
	r := newRecorder(1, 1)
	burst := func() {
		r.inst[0].Enqueue(0)
		<-r.ran
		awaitParked(t, r.s, 1)
	}
	burst()
	if avg := testing.AllocsPerRun(1000, burst); avg != 0 {
		t.Fatalf("a warm burst allocates %.2f objects, want 0", avg)
	}
	if started := r.s.Stats().WorkersStarted; started != 1 {
		t.Fatalf("warm bursts started %d goroutines, want 1", started)
	}
	r.s.Close()
}

// TestTicketWaitsCounted: a burst enqueued behind a held lock runs without a
// single blocked wait except the drainer's first, which is what
// Stats.TicketWaits reports.
func TestTicketWaitsCounted(t *testing.T) {
	r := newRecorder(1, 8)
	defer r.s.Close()
	r.inst[0].Lock() // an operation that reacquired after blocking holds the lock
	for i := 0; i < 8; i++ {
		r.inst[0].Enqueue(i)
	}
	for r.s.Stats().TicketWaits != 1 { // the drainer is parked on the first ticket
		runtime.Gosched()
	}
	r.inst[0].Unlock()
	for i := 0; i < 8; i++ {
		<-r.ran
	}
	if got := r.s.Stats().TicketWaits; got != 1 {
		t.Fatalf("TicketWaits = %d after a burst of 8 behind one holder, want 1", got)
	}
}

// TestFifoReusesItsArray checks both shapes of traffic: a queue that drains
// keeps one array for ever, one that never drains stays bounded by its depth.
func TestFifoReusesItsArray(t *testing.T) {
	var q Fifo[int]
	for i := 0; i < 1000; i++ {
		q.Push(i)
		if got := q.Pop(); got != i || q.Len() != 0 {
			t.Fatalf("pop = %d (len %d), want %d (0)", got, q.Len(), i)
		}
	}
	if cap(q.buf) != 1 {
		t.Fatalf("1000 one-item bursts grew the array to %d", cap(q.buf))
	}
	next := 0
	for i := 0; i < 10000; i++ {
		q.Push(i)
		if q.Len() > 5 {
			if got := q.Pop(); got != next {
				t.Fatalf("pop = %d, want %d", got, next)
			}
			next++
		}
	}
	if cap(q.buf) > 32 {
		t.Fatalf("a queue never deeper than 6 holds an array of %d", cap(q.buf))
	}
}

// TestFifoDetachAdopt: a detached array carries no element into the queue
// that adopts it, and the two queues share nothing afterwards.
func TestFifoDetachAdopt(t *testing.T) {
	var a, b Fifo[*int]
	for i := 0; i < 5; i++ {
		a.Push(new(int))
	}
	a.Pop()
	buf := a.Detach()
	if a.Len() != 0 || a.buf != nil || len(buf) != 0 || cap(buf) < 5 {
		t.Fatalf("after Detach: queue len %d array %v, detached len %d cap %d", a.Len(), a.buf, len(buf), cap(buf))
	}
	for i, p := range buf[:cap(buf)] {
		if p != nil {
			t.Fatalf("detached slot %d still holds an element", i)
		}
	}
	b.Adopt(buf)
	x := 7
	b.Push(&x)
	if b.Len() != 1 || &b.buf[:1][0] != &buf[:1][0] {
		t.Fatal("the adopting queue did not start from the detached array")
	}
	a.Push(new(int))
	if &a.buf[0] == &b.buf[0] {
		t.Fatal("the detaching queue still shares the array")
	}
	if got := b.Pop(); got != &x {
		t.Fatalf("adopted queue popped %v, want its own element", got)
	}
}

// BenchmarkEnqueueBurst is one token at a time (call_fan's pattern): every
// Enqueue finds the queue empty and needs a goroutine.
func BenchmarkEnqueueBurst(b *testing.B) {
	r := newRecorder(1, 1)
	defer r.s.Close()
	b.ReportAllocs()
	for b.Loop() {
		r.inst[0].Enqueue(0)
		<-r.ran
	}
}

// BenchmarkEnqueueStream is a flow-control window of tokens at a time (the
// rings' pattern): one drainer serves the whole burst. ns/op is per token.
func BenchmarkEnqueueStream(b *testing.B) {
	const window = 64
	r := newRecorder(1, window)
	defer r.s.Close()
	b.ReportAllocs()
	for n := 0; b.Loop(); n++ {
		r.inst[0].Enqueue(0)
		if n%window == window-1 {
			for i := 0; i < window; i++ {
				<-r.ran
			}
		}
	}
}

// TestCorkIdleStep: the drainers' idle step, where the engine lets go of
// the frames its executions corked, runs once for a run of executions that
// asked for it (WantIdle), when the queue runs dry and with the role still
// held: an item enqueued from inside the step is run by the same drainer,
// with no new goroutine. A run whose executions asked for nothing never
// runs it.
func TestCorkIdleStep(t *testing.T) {
	var inst *Instance[int]
	var steps atomic.Int32
	ran := make(chan int, 16)
	s := new(Scheduler[int])
	s.Init(func(it int, tk Ticket, fromDrainer bool) bool {
		tk.Wait()
		if it%2 == 1 {
			inst.WantIdle()
		}
		inst.Unlock()
		ran <- it
		return fromDrainer
	}, func() {
		if steps.Add(1) == 1 {
			inst.Enqueue(10)
		}
	})
	defer s.Close()
	inst = s.NewInstance(0)
	expect := func(items ...int) {
		t.Helper()
		for _, want := range items {
			if got := <-ran; got != want {
				t.Fatalf("item %d ran, want %d", got, want)
			}
		}
		awaitParked(t, s, 1)
	}
	inst.Lock()
	for i := 0; i < 4; i++ {
		inst.Enqueue(i) // 1 and 3 ask
	}
	inst.Unlock()
	expect(0, 1, 2, 3, 10)
	if n, started := steps.Load(), s.Stats().WorkersStarted; n != 1 || started != 1 {
		t.Fatalf("%d idle steps on %d goroutines, want one step on one", n, started)
	}
	inst.Enqueue(2)
	expect(2)
	if n := steps.Load(); n != 1 {
		t.Fatalf("a run that asked for nothing ran the idle step (%d steps)", n)
	}
	inst.Enqueue(5)
	expect(5)
	if n := steps.Load(); n != 2 {
		t.Fatalf("%d idle steps, want a second one", n)
	}
}
