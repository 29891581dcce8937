package dps

import (
	"fmt"
	"reflect"

	"repro/internal/core"
)

// Stage is one node of a typed flow graph under construction: an operation
// bound to the thread collection executing it and the routing function
// selecting the thread instance — the paper's
// FlowgraphNode<Operation, Route>(threadCollection), with the operation's
// token types carried in the type parameters so chains are checked at
// compile time.
//
// Like the engine's graph nodes, a Stage value belongs to at most one
// graph; construct a fresh Stage per graph (operations themselves are
// reusable).
type Stage[In, Out Token] struct {
	node *core.GraphNode
}

// Leaf builds a stage around a 1→1 operation: it receives one token and
// returns exactly one output token. In and Out must be pointer-to-struct
// token types.
func Leaf[In, Out Token](name string, on *Collection, via *Route, fn func(c *Ctx, in In) Out) Stage[In, Out] {
	return Stage[In, Out]{node: core.NewNode(core.Leaf[In, Out](name, fn), on, via)}
}

// Split builds a stage around a 1→N operation. The function must call post
// at least once; each posted token joins the new group tracked by the
// engine, so the paired merge knows when the group is complete without the
// programmer counting tokens. post belongs to the goroutine running fn:
// call it from there only, never after fn returns. It blocks while the
// group's flow-control window (WithWindow) is full, and since the body is
// the group's one poster the window never has a second waiter.
func Split[In, Out Token](name string, on *Collection, via *Route, fn func(c *Ctx, in In, post func(Out))) Stage[In, Out] {
	return Stage[In, Out]{node: core.NewNode(core.Split[In, Out](name, fn), on, via)}
}

// Merge builds a stage around an N→1 operation. The function receives the
// first token of a group and a next function yielding the remaining ones;
// next reports false once every token of the group has been consumed. The
// return value is the single output token.
func Merge[In, Out Token](name string, on *Collection, via *Route, fn func(c *Ctx, first In, next func() (In, bool)) Out) Stage[In, Out] {
	return Stage[In, Out]{node: core.NewNode(core.Merge[In, Out](name, fn), on, via)}
}

// Stream builds a stage around an N→M operation: it collects a group like
// a merge but may post output tokens at any point, enabling pipelining
// between successive parallel constructs (the paper's stream operations).
// It must post at least one token per group. As for Split, post belongs to
// the goroutine running fn and may block on the group's window.
func Stream[In, Out Token](name string, on *Collection, via *Route, fn func(c *Ctx, first In, next func() (In, bool), post func(Out))) Stage[In, Out] {
	return Stage[In, Out]{node: core.NewNode(core.Stream[In, Out](name, fn), on, via)}
}

// CallStage builds a stage that invokes another typed graph as a single
// 1→1 node — the paper's inter-application parallel service call
// (Figure 10). The target may belong to another application; pipelining
// and token queueing are preserved across the call, and canceling the
// outer call cancels the nested one.
func CallStage[In, Out Token](name string, target Graph[In, Out], on *Collection, via *Route) Stage[In, Out] {
	return Stage[In, Out]{node: core.NewNode(core.GraphCallOp(name, target.fg), on, via)}
}

// NewStage types a prebuilt operation definition, for operations
// constructed outside this package (e.g. by internal application
// packages). It verifies at construction time that the operation accepts
// In and emits only Out, so the typed chain cannot lie about an untyped
// operation.
func NewStage[In, Out Token](op *OpDef, on *Collection, via *Route) (Stage[In, Out], error) {
	subject := fmt.Sprintf("operation %q", op.Name())
	if err := verifyCallTypes[In, Out](op.InTypes(), subject, op.OutTypes(), subject); err != nil {
		return Stage[In, Out]{}, err
	}
	return Stage[In, Out]{node: core.NewNode(op, on, via)}, nil
}

// verifyCallTypes is the shared runtime check behind NewStage and Typed:
// the accepting side must take In, and every type the emitting side may
// produce must be Out. acceptsBy and emitsBy name the checked entities in
// diagnostics.
func verifyCallTypes[In, Out Token](accepts []reflect.Type, acceptsBy string, emits []reflect.Type, emitsBy string) error {
	inT, err := structType[In]()
	if err != nil {
		return fmt.Errorf("dps: %s: %w", acceptsBy, err)
	}
	outT, err := structType[Out]()
	if err != nil {
		return fmt.Errorf("dps: %s: %w", emitsBy, err)
	}
	if !typeIn(accepts, inT) {
		return fmt.Errorf("dps: %s does not accept %s (accepts %v)", acceptsBy, inT, accepts)
	}
	for _, t := range emits {
		if t != outT {
			return fmt.Errorf("dps: %s may emit %s, not covered by %s", emitsBy, t, outT)
		}
	}
	return nil
}

// structType resolves a token type parameter to its underlying struct
// type.
func structType[T Token]() (reflect.Type, error) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("token type %s is not a pointer to struct", t)
	}
	return t.Elem(), nil
}

func typeIn(ts []reflect.Type, want reflect.Type) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}
