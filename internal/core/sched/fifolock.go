package sched

import (
	"sync"
	"sync/atomic"
)

// FIFOLock is a mutual-exclusion lock granting ownership in reservation
// order. DPS serializes the operation bodies executing on one thread; the
// dispatcher reserves a ticket synchronously when a token arrives so that
// executions start in arrival order, even though each may run in its own
// goroutine. Operations release the lock while blocked (merge Next, flow
// controlled Post, graph calls), which reproduces the paper's behaviour of
// a thread whose split is stalled still making progress on its merge.
//
// Reservations are sequence numbers: ticket n owns the lock once n tickets
// before it have unlocked. A reservation therefore costs a counter
// increment whether or not the lock is held, and only a Wait that finds its
// turn not yet come creates anything to block on.
type FIFOLock struct {
	mu sync.Mutex
	// next is the number the next reservation gets; serving is the number of
	// unlocks so far, which is the ticket that owns the lock while
	// serving < next (equal: the lock is free).
	next, serving uint64
	// waiters are the tickets blocked in Wait, in no order: nearly always
	// none, a handful when operations reacquire after blocking.
	waiters []waiter
	// blocked, when set, counts the Waits that had to block.
	blocked *atomic.Int64
}

type waiter struct {
	seq uint64
	ch  chan struct{}
}

// Ticket is a reservation for the lock.
type Ticket struct {
	l   *FIFOLock
	seq uint64
}

// Reserve takes the next place in line. The returned ticket's Wait blocks
// until the lock is owned by the caller.
func (l *FIFOLock) Reserve() Ticket {
	l.mu.Lock()
	seq := l.next
	l.next++
	l.mu.Unlock()
	return Ticket{l: l, seq: seq}
}

// Wait blocks until the reservation is granted.
func (t Ticket) Wait() {
	l := t.l
	l.mu.Lock()
	if l.serving >= t.seq {
		l.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, waiter{seq: t.seq, ch: ch})
	l.mu.Unlock()
	if l.blocked != nil {
		l.blocked.Add(1)
	}
	<-ch
}

// Lock reserves and waits.
func (l *FIFOLock) Lock() { l.Reserve().Wait() }

// Unlock passes ownership to the next reservation, if any.
func (l *FIFOLock) Unlock() {
	l.mu.Lock()
	if l.serving == l.next {
		l.mu.Unlock()
		panic("sched: unlock of unlocked FIFOLock")
	}
	l.serving++
	var wake chan struct{}
	for i, w := range l.waiters {
		if w.seq == l.serving {
			last := len(l.waiters) - 1
			l.waiters[i] = l.waiters[last]
			l.waiters[last] = waiter{}
			l.waiters = l.waiters[:last]
			wake = w.ch
			break
		}
	}
	l.mu.Unlock()
	if wake != nil {
		close(wake)
	}
}
