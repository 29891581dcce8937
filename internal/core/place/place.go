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
	"sync/atomic"
)

// Key identifies one thread instance cluster-wide: the collection name and
// the thread index within it.
type Key struct {
	Collection string
	Thread     int
}

func (k Key) String() string { return fmt.Sprintf("%s[%d]", k.Collection, k.Thread) }

// Table is the epoch-versioned placement of one thread collection:
// nodes[i] hosts thread i. The zero Table is empty and usable. Readers —
// every token routed — load an immutable snapshot and take no lock;
// writers copy the snapshot under mu and publish the copy.
type Table struct {
	mu  sync.Mutex // serializes writers
	cur atomic.Pointer[placement]
}

// placement is one published version of a Table. Nothing in it changes
// once stored.
type placement struct {
	epoch uint64
	nodes []string
}

// unplaced is what a Table never set reads.
var unplaced placement

// load returns the current placement.
func (t *Table) load() *placement {
	if p := t.cur.Load(); p != nil {
		return p
	}
	return &unplaced
}

// Epoch returns the table's current version. Epoch 0 means never mapped.
func (t *Table) Epoch() uint64 { return t.load().epoch }

// Len returns the number of placed threads.
func (t *Table) Len() int { return len(t.load().nodes) }

// NodeOf returns the node hosting thread i.
func (t *Table) NodeOf(i int) (string, bool) {
	nodes := t.load().nodes
	if i < 0 || i >= len(nodes) {
		return "", false
	}
	return nodes[i], true
}

// Snapshot returns the epoch and a copy of the full assignment.
func (t *Table) Snapshot() (uint64, []string) {
	p := t.load()
	return p.epoch, append([]string(nil), p.nodes...)
}

// Set replaces the whole assignment and bumps the epoch.
func (t *Table) Set(nodes []string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &placement{epoch: t.load().epoch + 1, nodes: append([]string(nil), nodes...)}
	t.cur.Store(p)
	return p.epoch
}

// SetThread reassigns one thread and bumps the epoch.
func (t *Table) SetThread(i int, node string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.load()
	if i < 0 || i >= len(old.nodes) {
		return 0, fmt.Errorf("place: thread %d out of range [0,%d)", i, len(old.nodes))
	}
	p := &placement{epoch: old.epoch + 1, nodes: append([]string(nil), old.nodes...)}
	p.nodes[i] = node
	t.cur.Store(p)
	return p.epoch, nil
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
