package simnet

// Fault injection beyond crashes and partitions: seeded, directional
// delivery jitter and transient per-send errors. Together with Crash and
// Partition/Heal these are the primitive faults the chaos harness
// (internal/chaos) composes into scripted and randomized schedules. All
// randomness flows from one seed (SeedFaults), so a failing schedule
// reproduces exactly from its printed seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// The two transient send errors: a sender that retries gets through once
// the fault clears. Any other Send error (unknown or crashed destination,
// closed sender) is permanent.
var (
	// ErrInjected is wrapped by every error injected with FailNextSends.
	ErrInjected = errors.New("simnet: injected transient send error")
	// ErrPartitioned is wrapped by every Send across a cut link.
	ErrPartitioned = errors.New("simnet: partitioned")
)

// dirKey is a directed node pair (faults are per link direction, unlike
// partitions, which cut both ways).
type dirKey struct{ from, to string }

// SeedFaults installs the deterministic random source driving jitter
// draws. Call it before SetJitter for reproducible delivery timings; an
// unseeded network uses seed 1.
func (n *Network) SeedFaults(seed int64) {
	n.faultMu.Lock()
	n.rng = rand.New(rand.NewSource(seed))
	n.faultMu.Unlock()
}

// SetJitter adds up to max of extra, randomly drawn delivery delay to
// every message from one node to another (one direction). Per-channel
// FIFO delivery order is preserved — jitter delays deliveries, it never
// reorders them. max <= 0 clears the jitter on the link.
func (n *Network) SetJitter(from, to string, max time.Duration) {
	n.faultMu.Lock()
	if n.jitter == nil {
		n.jitter = make(map[dirKey]time.Duration)
	}
	if max <= 0 {
		delete(n.jitter, dirKey{from, to})
	} else {
		n.jitter[dirKey{from, to}] = max
	}
	n.faultsOn.Store(len(n.jitter) > 0 || len(n.failNext) > 0)
	n.faultMu.Unlock()
}

// FailNextSends makes the next count Sends from one node to another (one
// direction) fail with a transient error (ErrInjected) instead of being
// transmitted. It models the refused dials and reset connections of a
// restarting peer: the destination is alive, the fault clears by itself,
// and a sender that retries gets through.
func (n *Network) FailNextSends(from, to string, count int) {
	n.faultMu.Lock()
	if n.failNext == nil {
		n.failNext = make(map[dirKey]int)
	}
	if count <= 0 {
		delete(n.failNext, dirKey{from, to})
	} else {
		n.failNext[dirKey{from, to}] = count
	}
	n.faultsOn.Store(len(n.jitter) > 0 || len(n.failNext) > 0)
	n.faultMu.Unlock()
}

// InjectedSendErrors reports how many sends failed with an injected
// transient error so far.
func (n *Network) InjectedSendErrors() int64 { return n.injected.Load() }

// injectSendFault consumes one pending injected failure on the from→to
// link, if any. Guarded by the faultsOn flag so fault-free networks (every
// benchmark) pay one atomic load and nothing else.
func (n *Network) injectSendFault(from, to string) error {
	if !n.faultsOn.Load() {
		return nil
	}
	n.faultMu.Lock()
	left, ok := n.failNext[dirKey{from, to}]
	if ok {
		if left <= 1 {
			delete(n.failNext, dirKey{from, to})
			n.faultsOn.Store(len(n.jitter) > 0 || len(n.failNext) > 0)
		} else {
			n.failNext[dirKey{from, to}] = left - 1
		}
	}
	n.faultMu.Unlock()
	if !ok {
		return nil
	}
	n.injected.Add(1)
	return fmt.Errorf("simnet: send %s -> %s: %w", from, to, ErrInjected)
}

// jitterFor draws this message's extra delivery delay on the from→to link.
func (n *Network) jitterFor(from, to string) time.Duration {
	if !n.faultsOn.Load() {
		return 0
	}
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	max, ok := n.jitter[dirKey{from, to}]
	if !ok {
		return 0
	}
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(1))
	}
	return time.Duration(n.rng.Int63n(int64(max) + 1))
}
