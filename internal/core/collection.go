package core

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// ThreadCollection is a named group of DPS threads. Each thread carries a
// private instance of the collection's state type S (the paper's thread
// class members, used to build distributed data structures) and is placed
// on a cluster node by Map. The placement is an epoch-versioned table
// owned by the placement layer (internal/core/place); while flow graphs
// execute it may only change through the live-remap protocol (Remap /
// RemapThread), which quiesces the affected instance, migrates its state
// and forwards in-flight tokens.
//
// Threads are instantiated lazily on their node the first time a token is
// routed to them, mirroring the paper's on-demand application deployment.
type ThreadCollection struct {
	app       *App
	name      string
	id        uint64       // the id the collection is declared under (App.declareLocked)
	stateType reflect.Type // nil for stateless collections
	newState  func() any

	place place.Table

	// Fault-tolerance hooks (ftengine.go): checkpoint eligibility is
	// computed once (the state type never changes), and onRecover observes
	// failover re-placements.
	ckptOnce sync.Once
	ckptOK   bool

	recoverMu sync.Mutex
	onRecover func(thread int, from, to string)
}

// NewCollection creates a thread collection whose threads each own a
// zero-initialized *S. Use struct{} for stateless collections.
func NewCollection[S any](app *App, name string) (*ThreadCollection, error) {
	st := reflect.TypeOf((*S)(nil)).Elem()
	tc := &ThreadCollection{
		app:       app,
		name:      name,
		stateType: st,
		newState:  func() any { return new(S) },
	}
	if err := app.addCollection(tc); err != nil {
		return nil, err
	}
	return tc, nil
}

// MustCollection is NewCollection panicking on error, for example setup code.
func MustCollection[S any](app *App, name string) *ThreadCollection {
	tc, err := NewCollection[S](app, name)
	if err != nil {
		panic(err)
	}
	return tc
}

// Name returns the collection's name.
func (tc *ThreadCollection) Name() string { return tc.name }

// Map places the collection's threads on cluster nodes using the paper's
// mapping-string syntax: node names separated by spaces with an optional
// multiplier, e.g. "nodeA*2 nodeB" creates threads 0 and 1 on nodeA and
// thread 2 on nodeB. Map replaces any previous mapping. While a flow graph
// using the collection has calls in flight a replacement is rejected —
// remapping a live collection must go through Remap, which migrates thread
// state and forwards in-flight tokens instead of silently misrouting them.
func (tc *ThreadCollection) Map(spec string) error {
	placements, err := ParseMapping(spec)
	if err != nil {
		return fmt.Errorf("dps: collection %q: %w", tc.name, err)
	}
	return tc.MapNodes(placements...)
}

// MapNodes places thread i on nodes[i]. Like Map, it rejects replacing the
// mapping of a collection while calls are executing.
func (tc *ThreadCollection) MapNodes(nodes ...string) error {
	if len(nodes) == 0 {
		return fmt.Errorf("dps: collection %q: empty mapping", tc.name)
	}
	if tc.app.ftOn && len(nodes) > 1<<ft.ThreadBits {
		return fmt.Errorf("dps: collection %q: %d threads, over the %d a sender id can name", tc.name, len(nodes), 1<<ft.ThreadBits)
	}
	for _, n := range nodes {
		if !tc.app.hasNode(n) {
			return fmt.Errorf("dps: collection %q: unknown node %q", tc.name, n)
		}
	}
	return tc.app.replaceMapping(tc, nodes)
}

// MapRoundRobin places n threads across the application's nodes in order,
// wrapping around (a convenience not in the paper but implied by its
// dynamic mapping facilities).
func (tc *ThreadCollection) MapRoundRobin(n int) error {
	all := tc.app.NodeNames()
	if len(all) == 0 {
		return fmt.Errorf("dps: collection %q: application has no nodes", tc.name)
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = all[i%len(all)]
	}
	return tc.MapNodes(nodes...)
}

// Remap live-migrates the collection to a new placement given in the
// paper's mapping-string syntax, while flow graphs keep executing. The new
// placement must keep the thread count (merge routing and credit trackers
// are sized by it); every thread whose node changes goes through the
// migration protocol: its instance is quiesced on the old node, its state
// serialized and shipped to the new owner, the placement epoch bumped, and
// a relay installed so in-flight tokens routed with the stale placement
// are forwarded in order.
//
// ctx bounds the quiesce of each thread (an instance busy inside an
// operation, or collecting an open merge group, is migrated only once it
// falls idle); without a deadline the quiesce waits indefinitely. Threads
// migrate one at a time; on error the failed thread's migration is rolled
// back (its placement unchanged, held tokens re-dispatched) but threads
// already moved stay moved — consult Placements for the partial progress.
// Traffic continues undisturbed either way.
func (tc *ThreadCollection) Remap(ctx context.Context, spec string) error {
	placements, err := ParseMapping(spec)
	if err != nil {
		return fmt.Errorf("dps: collection %q: %w", tc.name, err)
	}
	return tc.RemapNodes(ctx, placements...)
}

// RemapNodes is Remap with an explicit per-thread node list.
func (tc *ThreadCollection) RemapNodes(ctx context.Context, nodes ...string) error {
	cur := tc.Placements()
	if len(cur) == 0 {
		return fmt.Errorf("dps: collection %q: not mapped; use Map first", tc.name)
	}
	for _, n := range nodes {
		if !tc.app.hasNode(n) {
			return fmt.Errorf("dps: collection %q: unknown node %q", tc.name, n)
		}
	}
	moves, err := place.Plan(cur, nodes)
	if err != nil {
		return fmt.Errorf("dps: collection %q: %w", tc.name, err)
	}
	for _, mv := range moves {
		if err := tc.app.remap(ctx, tc, mv.Thread, mv.To); err != nil {
			return err
		}
	}
	return nil
}

// RemapThread live-migrates a single thread to the given node (see Remap).
func (tc *ThreadCollection) RemapThread(ctx context.Context, thread int, node string) error {
	if !tc.app.hasNode(node) {
		return fmt.Errorf("dps: collection %q: unknown node %q", tc.name, node)
	}
	return tc.app.remap(ctx, tc, thread, node)
}

// ThreadCount returns the number of mapped threads.
func (tc *ThreadCollection) ThreadCount() int { return tc.place.Len() }

// Epoch returns the placement table's version; it increases on every Map
// and on every completed thread migration.
func (tc *ThreadCollection) Epoch() uint64 { return tc.place.Epoch() }

// NodeOf returns the cluster node hosting thread i.
func (tc *ThreadCollection) NodeOf(i int) (string, error) {
	node, ok := tc.place.NodeOf(i)
	if !ok {
		return "", fmt.Errorf("dps: collection %q: thread index %d out of range [0,%d)", tc.name, i, tc.place.Len())
	}
	return node, nil
}

// Placements returns a copy of the node assignment of every thread.
func (tc *ThreadCollection) Placements() []string {
	_, nodes := tc.place.Snapshot()
	return nodes
}

// ParseMapping parses the paper's thread-mapping string syntax
// ("nodeA*2 nodeB nodeC*3") into an explicit per-thread node list.
func ParseMapping(spec string) ([]string, error) {
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty mapping string")
	}
	var out []string
	for _, f := range fields {
		name := f
		count := 1
		if i := strings.IndexByte(f, '*'); i >= 0 {
			name = f[:i]
			c, err := strconv.Atoi(f[i+1:])
			if err != nil || c <= 0 {
				return nil, fmt.Errorf("bad multiplier in %q", f)
			}
			count = c
		}
		if name == "" {
			return nil, fmt.Errorf("empty node name in %q", f)
		}
		for j := 0; j < count; j++ {
			out = append(out, name)
		}
	}
	return out, nil
}

// OnRecover installs a callback observing failover re-placements of this
// collection's threads: after a node death, fn is invoked once per moved
// thread with the dead node and the surviving node the thread was restored
// on (from its newest checkpoint, with in-flight tokens replayed). The
// callback runs on the recovery coordinator's goroutine after the thread
// is live again; keep it brief.
func (tc *ThreadCollection) OnRecover(fn func(thread int, from, to string)) {
	tc.recoverMu.Lock()
	tc.onRecover = fn
	tc.recoverMu.Unlock()
}

func (tc *ThreadCollection) notifyRecover(thread int, from, to string) {
	tc.recoverMu.Lock()
	fn := tc.onRecover
	tc.recoverMu.Unlock()
	if fn != nil {
		fn(thread, from, to)
	}
}

// checkpointable reports whether the collection's instances can be
// checkpointed and restored: stateless, or a registered fully-exported
// struct state — the same constraint live migration imposes, computed once.
func (tc *ThreadCollection) checkpointable() bool {
	tc.ckptOnce.Do(func() {
		tc.ckptOK = tc.app.validateMigratableState(tc) == nil
	})
	return tc.ckptOK
}

// StateOf returns the current thread's state as *S. It panics if the
// thread's collection was not declared with state type S, surfacing wiring
// mistakes immediately (the analogue of the paper's compile-time thread
// type parameter).
func StateOf[S any](c *Ctx) *S {
	s, ok := c.State().(*S)
	if !ok {
		panic(fmt.Sprintf("dps: thread state is %T, not *%s", c.State(), reflect.TypeOf((*S)(nil)).Elem()))
	}
	return s
}
