package dps

import "repro/internal/core"

// Collection is a named group of DPS threads. Each thread carries a
// private instance of the collection's state type and is placed on a
// cluster node with Map / MapNodes / MapRoundRobin (the paper's dynamic
// mapping strings, e.g. "nodeA*2 nodeB").
//
// While flow graphs execute, the placement may only change through the
// live-remap protocol: Remap(ctx, spec) / RemapThread(ctx, i, node)
// quiesce each moving thread, ship its state (which must be a registered,
// fully exported struct type — or empty) to the new node, and forward
// in-flight tokens so calls keep running with per-thread FIFO order
// preserved. Epoch reports the placement version. The ctx deadline bounds
// the per-thread quiesce wait.
type Collection = core.ThreadCollection

// NewCollection creates a thread collection whose threads each own a
// zero-initialized *S, retrieved inside operations with StateOf. Use
// struct{} for stateless collections.
func NewCollection[S any](app *App, name string) (*Collection, error) {
	return core.NewCollection[S](app.core, name)
}

// MustCollection is NewCollection panicking on error, for example setup
// code.
func MustCollection[S any](app *App, name string) *Collection {
	return core.MustCollection[S](app.core, name)
}

// StateOf returns the current thread's private state as *S. It panics if
// the thread's collection was not declared with state type S, surfacing
// wiring mistakes immediately.
func StateOf[S any](c *Ctx) *S { return core.StateOf[S](c) }

// ParseMapping parses the paper's thread-mapping string syntax
// ("nodeA*2 nodeB nodeC*3") into an explicit per-thread node list.
func ParseMapping(spec string) ([]string, error) { return core.ParseMapping(spec) }
