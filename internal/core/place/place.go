// Package place is the placement layer of the DPS engine: it owns the
// epoch-versioned assignment of thread-collection instances to cluster
// nodes (the paper's dynamic mapping facilities) and the per-thread state
// machine of the live-remap protocol that moves a thread between nodes
// while flow graphs execute.
//
// The layer is deliberately transport- and token-agnostic: it stores the
// engine's in-flight items as opaque values and only decides *where they
// stand* in the migration protocol. Two types:
//
//   - Table (every node, shared in-process): the authoritative
//     thread→node assignment of one collection. Every mutation bumps the
//     epoch, so routing decisions and control messages can be ordered.
//
//   - Thread (one per node and thread, thread.go): everything a node knows
//     about one thread's place in the protocol — whether it serves the
//     thread, holds its arrivals for an outbound move, forwards them to a
//     later owner or expects its state — behind one lock, so every arrival
//     is decided and accounted for in one critical section.
//
// State serialization, the coordinator sequence and the actual sends live
// in the runtime (internal/core/migrate.go); this package is pure
// bookkeeping and is unit-testable — and exhaustively explorable — without
// an engine.
package place

import (
	"fmt"
	"sync"
)

// Key identifies one thread instance cluster-wide: the collection name and
// the thread index within it.
type Key struct {
	Collection string
	Thread     int
}

func (k Key) String() string { return fmt.Sprintf("%s[%d]", k.Collection, k.Thread) }

// Table is the epoch-versioned placement of one thread collection:
// nodes[i] hosts thread i. The zero Table is empty and usable.
type Table struct {
	mu    sync.RWMutex
	epoch uint64
	nodes []string
}

// Epoch returns the table's current version. Epoch 0 means never mapped.
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Len returns the number of placed threads.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// NodeOf returns the node hosting thread i.
func (t *Table) NodeOf(i int) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.nodes) {
		return "", false
	}
	return t.nodes[i], true
}

// Snapshot returns the epoch and a copy of the full assignment.
func (t *Table) Snapshot() (uint64, []string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch, append([]string(nil), t.nodes...)
}

// Set replaces the whole assignment and bumps the epoch.
func (t *Table) Set(nodes []string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes = append([]string(nil), nodes...)
	t.epoch++
	return t.epoch
}

// SetThread reassigns one thread and bumps the epoch.
func (t *Table) SetThread(i int, node string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.nodes) {
		return 0, fmt.Errorf("place: thread %d out of range [0,%d)", i, len(t.nodes))
	}
	t.nodes[i] = node
	t.epoch++
	return t.epoch, nil
}

// Move is one step of a remap plan: thread From→To.
type Move struct {
	Thread   int
	From, To string
}

// Plan diffs the current assignment against the wanted one, returning the
// threads that must migrate. The assignments must have equal length (live
// remapping never changes a collection's cardinality — merge routing and
// credit trackers are sized by it).
func Plan(cur, want []string) ([]Move, error) {
	if len(cur) != len(want) {
		return nil, fmt.Errorf("place: remap changes thread count %d -> %d; cardinality is fixed while graphs execute", len(cur), len(want))
	}
	var moves []Move
	for i := range cur {
		if cur[i] != want[i] {
			moves = append(moves, Move{Thread: i, From: cur[i], To: want[i]})
		}
	}
	return moves, nil
}
