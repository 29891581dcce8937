package core

import (
	"fmt"
	"sync/atomic"
)

// RouteCtx is the information available to a routing function when it picks
// a destination thread index inside the target collection.
type RouteCtx struct {
	// ThreadCount is the number of threads in the target collection.
	ThreadCount int
	// Seq is a per-posting-context sequence number (0, 1, 2, ... for the
	// tokens posted by one operation execution), useful for round-robin.
	Seq int
	// Outstanding returns the number of tokens currently dispatched to
	// thread i of the target collection and not yet acknowledged by the
	// downstream merge. It powers the paper's load-balancing scheme; it
	// reports zero when no tracking is active for this edge.
	Outstanding func(i int) int
}

// Route selects the thread instance that will process a token, the
// equivalent of the paper's routing function classes and ROUTE macro.
type Route struct {
	name string
	pick func(tok Token, rc RouteCtx) int
	// fixed marks a ToThread route, which always picks thread and is
	// resolved from the Route alone (Runtime.routeThread): it has no pick
	// function and reads no credits.
	fixed  bool
	thread int
}

// RouteFn builds a route from a function of the token and the routing
// context. The function must return an index in [0, ThreadCount).
func RouteFn(name string, pick func(tok Token, rc RouteCtx) int) *Route {
	return &Route{name: name, pick: pick}
}

// Name returns the route's name (used in DOT exports and errors).
func (r *Route) Name() string { return r.name }

// ToThread always routes to a fixed thread index; index 0 is the paper's
// "main thread" route. A fixed-thread route reads no credits: the engine
// keeps no load-balancing tracker for a node it routes to, and charges
// none for the tokens a split posts there.
func ToThread(i int) *Route {
	return &Route{name: fmt.Sprintf("to-thread-%d", i), fixed: true, thread: i}
}

// MainRoute routes every token to thread 0 of the target collection.
func MainRoute() *Route { return ToThread(0) }

// RoundRobin cycles through the threads of the target collection in posting
// order. Each RoundRobin value carries its own counter; reuse the same
// value on several graph nodes to interleave, or create one per node.
func RoundRobin() *Route {
	var ctr atomic.Int64
	return &Route{
		name: "round-robin",
		pick: func(_ Token, rc RouteCtx) int {
			if rc.ThreadCount == 0 {
				return 0
			}
			return int((ctr.Add(1) - 1) % int64(rc.ThreadCount))
		},
	}
}

// ByKey routes by a user-extracted integer key modulo the thread count,
// like the paper's currentToken->pos%threadCount() example.
func ByKey[In Token](name string, key func(in In) int) *Route {
	return &Route{
		name: name,
		pick: func(tok Token, rc RouteCtx) int {
			if rc.ThreadCount == 0 {
				return 0
			}
			k := key(tok.(In)) % rc.ThreadCount
			if k < 0 {
				k += rc.ThreadCount
			}
			return k
		},
	}
}

// LoadBalanced implements the paper's feedback-driven load balancing:
// tokens are sent to the thread with the fewest outstanding
// (un-acknowledged) tokens, preferring lower indices on ties. It requires
// the target node to sit between a split and its merge, which is where the
// runtime maintains outstanding counters from merge acknowledgements.
func LoadBalanced() *Route {
	return &Route{
		name: "load-balanced",
		pick: func(_ Token, rc RouteCtx) int {
			best, bestOut := 0, int(^uint(0)>>1)
			for i := 0; i < rc.ThreadCount; i++ {
				out := 0
				if rc.Outstanding != nil {
					out = rc.Outstanding(i)
				}
				if out < bestOut {
					best, bestOut = i, out
				}
			}
			return best
		},
	}
}
