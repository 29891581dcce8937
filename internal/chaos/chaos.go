// Package chaos is a deterministic, seed-driven fault scheduler for the
// DPS engine: it composes the simulated network's primitive faults —
// abrupt node crashes, partitions and heals, directional delivery jitter,
// transient per-send errors — into scripted or randomized schedules, runs
// a real workload (the Figure 6 ring, the §5 Game of Life) underneath,
// and checks the fault-tolerance layer's invariants afterwards: zero
// failed calls, byte-identical results, exactly one failover per crash
// and none for transient faults.
//
// Determinism is per schedule, not per interleaving: the same seed always
// yields the same fault sequence, fault times and jitter draws, so a
// failing soak reproduces its schedule exactly from the printed seed,
// while goroutine interleaving underneath still varies run to run.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Kind enumerates the primitive faults a schedule composes.
type Kind int

const (
	// Crash is an abrupt power failure of node A: queued NIC messages are
	// lost and the node never comes back. The only fault that must end in
	// a failover.
	Crash Kind = iota
	// Partition cuts all traffic between A and B, both directions.
	Partition
	// Heal undoes a Partition of A and B.
	Heal
	// Jitter adds up to Max of random extra delivery delay on the A→B
	// direction (FIFO order preserved).
	Jitter
	// SendErrors makes the next Count sends on the A→B direction fail with
	// a transient error — the refused dials of a restarting peer.
	SendErrors
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case Jitter:
		return "jitter"
	case SendErrors:
		return "send-errors"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one scheduled fault. At is the offset from workload start; the
// remaining fields depend on Kind (see the Kind constants).
type Fault struct {
	At    time.Duration
	Kind  Kind
	A, B  string
	Max   time.Duration // Jitter only
	Count int           // SendErrors only
}

func (f Fault) String() string {
	at := f.At.Round(time.Millisecond)
	switch f.Kind {
	case Crash:
		return fmt.Sprintf("+%v crash %s", at, f.A)
	case Partition:
		return fmt.Sprintf("+%v partition %s<->%s", at, f.A, f.B)
	case Heal:
		return fmt.Sprintf("+%v heal %s<->%s", at, f.A, f.B)
	case Jitter:
		return fmt.Sprintf("+%v jitter %s->%s max %v", at, f.A, f.B, f.Max)
	case SendErrors:
		return fmt.Sprintf("+%v send-errors %s->%s x%d", at, f.A, f.B, f.Count)
	}
	return fmt.Sprintf("+%v %v", at, f.Kind)
}

// Schedule is a time-ordered fault sequence plus the seed it was derived
// from (also the seed of the network's jitter draws).
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// Crashes counts the schedule's crash faults.
func (s Schedule) Crashes() int {
	n := 0
	for _, f := range s.Faults {
		if f.Kind == Crash {
			n++
		}
	}
	return n
}

func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d (%d faults)", s.Seed, len(s.Faults))
	for _, f := range s.Faults {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Random derives a randomized schedule from a seed. nodes is the
// workload's full node list with the master first; the master is never a
// victim (its death is unrecoverable by design — it hosts calls and the
// recovery coordinator). Up to crashes distinct non-master nodes die,
// capped at len(nodes)-2 so at least one worker node survives. Transient
// faults — jitter, send-error bursts, partitions healed well within
// transport.SimRetryBudget — land in the first part of span, so the
// senders' retries absorb them and only crashes may surface as failovers;
// crashes land after every partition has healed, so a blocked injector can
// never stretch a partition past the retry budget.
func Random(seed int64, nodes []string, span time.Duration, crashes int) Schedule {
	if len(nodes) < 2 {
		panic("chaos: need a master and at least one victim node")
	}
	rng := rand.New(rand.NewSource(seed))
	victims := nodes[1:]
	if max := len(victims) - 1; crashes > max {
		crashes = max
	}
	if crashes < 0 {
		crashes = 0
	}

	at := func(lo, hi float64) time.Duration {
		return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(span))
	}
	pair := func(list []string) (string, string) {
		a := list[rng.Intn(len(list))]
		b := list[rng.Intn(len(list))]
		for b == a {
			b = list[rng.Intn(len(list))]
		}
		return a, b
	}

	var faults []Fault
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		a, b := pair(nodes)
		faults = append(faults, Fault{At: at(0.05, 0.5), Kind: Jitter, A: a, B: b,
			Max: time.Duration(50+rng.Intn(350)) * time.Microsecond})
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		a, b := pair(nodes)
		faults = append(faults, Fault{At: at(0.05, 0.7), Kind: SendErrors, A: a, B: b,
			Count: 1 + rng.Intn(3)})
	}
	var lastHeal time.Duration
	if len(victims) >= 2 {
		used := map[[2]string]bool{}
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			a, b := pair(victims)
			if a > b {
				a, b = b, a
			}
			// One partition window per pair, so windows never overlap and
			// chain into an open stretch longer than the retry budget.
			if used[[2]string{a, b}] {
				continue
			}
			used[[2]string{a, b}] = true
			cut := at(0.05, 0.2)
			// Healed in well under the retry budget, so the retrying
			// senders get through before anyone is declared dead.
			heal := cut + time.Duration(30+rng.Intn(50))*time.Millisecond
			faults = append(faults,
				Fault{At: cut, Kind: Partition, A: a, B: b},
				Fault{At: heal, Kind: Heal, A: a, B: b})
			if heal > lastHeal {
				lastHeal = heal
			}
		}
	}
	perm := rng.Perm(len(victims))
	for i := 0; i < crashes; i++ {
		when := at(0.35, 0.6)
		if min := lastHeal + 20*time.Millisecond; when < min {
			when = min
		}
		faults = append(faults, Fault{At: when, Kind: Crash, A: victims[perm[i]]})
	}
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	return Schedule{Seed: seed, Faults: faults}
}
