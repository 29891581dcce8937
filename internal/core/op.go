package core

import (
	"fmt"
	"reflect"
)

// OpKind distinguishes the four elementary DPS operations.
type OpKind int

const (
	// KindLeaf consumes one token and produces exactly one.
	KindLeaf OpKind = iota
	// KindSplit consumes one token and produces one or more, opening a group.
	KindSplit
	// KindMerge consumes all tokens of a group and produces exactly one.
	KindMerge
	// KindStream consumes all tokens of a group and may produce outputs at
	// any time during collection, opening a new group (the paper's fused
	// merge+split that preserves pipelining across constructs).
	KindStream
)

func (k OpKind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindSplit:
		return "split"
	case KindMerge:
		return "merge"
	case KindStream:
		return "stream"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpDef is an operation definition: the user-provided sequential code plus
// the token-type signature used for graph coherence checking (the analogue
// of the paper's operation template parameters and IDENTIFYOPERATION).
// OpDefs are stateless and reusable across graph nodes and graphs.
type OpDef struct {
	name     string
	kind     OpKind
	inTypes  []reflect.Type // acceptable input struct types
	outTypes []reflect.Type // possible output struct types
	// run executes the body for one execution: the input is c.in, outputs
	// leave through c.postOut and a collector's further inputs arrive
	// through c.nextIn.
	run func(c *Ctx)
}

// Name returns the operation's registered name.
func (d *OpDef) Name() string { return d.name }

// Kind returns the operation kind.
func (d *OpDef) Kind() OpKind { return d.kind }

// InTypes returns the acceptable input token struct types.
func (d *OpDef) InTypes() []reflect.Type { return append([]reflect.Type(nil), d.inTypes...) }

// OutTypes returns the possible output token struct types.
func (d *OpDef) OutTypes() []reflect.Type { return append([]reflect.Type(nil), d.outTypes...) }

func (d *OpDef) acceptsIn(t reflect.Type) bool {
	for _, it := range d.inTypes {
		if it == t {
			return true
		}
	}
	return false
}

// Leaf defines a 1→1 operation: it receives one token and returns exactly
// one output token. In and Out must be pointer-to-struct token types.
func Leaf[In, Out Token](name string, fn func(c *Ctx, in In) Out) *OpDef {
	inT := typeOfGeneric[In]()
	outT := typeOfGeneric[Out]()
	return &OpDef{
		name:     name,
		kind:     KindLeaf,
		inTypes:  []reflect.Type{inT},
		outTypes: []reflect.Type{outT},
		run: func(c *Ctx) {
			out := fn(c, c.in.(In))
			c.postOut(out)
		},
	}
}

// Split defines a 1→N operation. The function must call post at least once;
// each posted token joins the new group tracked by the runtime so the
// paired merge knows when the group is complete without the programmer
// counting tokens.
func Split[In, Out Token](name string, fn func(c *Ctx, in In, post func(Out))) *OpDef {
	inT := typeOfGeneric[In]()
	outT := typeOfGeneric[Out]()
	return &OpDef{
		name:     name,
		kind:     KindSplit,
		inTypes:  []reflect.Type{inT},
		outTypes: []reflect.Type{outT},
		run: func(c *Ctx) {
			fn(c, c.in.(In), func(o Out) { c.postOut(o) })
		},
	}
}

// Merge defines an N→1 operation. The function receives the first token of
// a group and a next function yielding the remaining ones; next returns
// ok=false once every token of the group has been consumed. The function's
// return value is the single output token. This mirrors the paper's
// waitForNextToken loop.
func Merge[In, Out Token](name string, fn func(c *Ctx, first In, next func() (In, bool)) Out) *OpDef {
	inT := typeOfGeneric[In]()
	outT := typeOfGeneric[Out]()
	return &OpDef{
		name:     name,
		kind:     KindMerge,
		inTypes:  []reflect.Type{inT},
		outTypes: []reflect.Type{outT},
		run: func(c *Ctx) {
			typedNext := func() (In, bool) {
				t, ok := c.nextIn()
				if !ok {
					var zero In
					return zero, false
				}
				return t.(In), true
			}
			out := fn(c, c.in.(In), typedNext)
			c.postOut(out)
		},
	}
}

// Stream defines an N→M operation: it collects a group like a merge but may
// post output tokens at any point, enabling pipelining between successive
// parallel constructs (paper §3, "Stream operations"). It must post at
// least one token per group.
func Stream[In, Out Token](name string, fn func(c *Ctx, first In, next func() (In, bool), post func(Out))) *OpDef {
	inT := typeOfGeneric[In]()
	outT := typeOfGeneric[Out]()
	return &OpDef{
		name:     name,
		kind:     KindStream,
		inTypes:  []reflect.Type{inT},
		outTypes: []reflect.Type{outT},
		run: func(c *Ctx) {
			typedNext := func() (In, bool) {
				t, ok := c.nextIn()
				if !ok {
					var zero In
					return zero, false
				}
				return t.(In), true
			}
			fn(c, c.in.(In), typedNext, func(o Out) { c.postOut(o) })
		},
	}
}

// exemplarTypes converts exemplar token pointers (e.g. (*FooToken)(nil))
// into their struct types.
func exemplarTypes(exemplars []Token) []reflect.Type {
	out := make([]reflect.Type, 0, len(exemplars))
	for _, e := range exemplars {
		t := reflect.TypeOf(e)
		if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("dps: exemplar must be a (possibly nil) pointer to struct, got %T", e))
		}
		out = append(out, t.Elem())
	}
	return out
}

// SplitAny defines a split that may emit several different token types
// (conditional graph paths, paper Figure 3). outs lists exemplar pointers
// of every type the operation may post, e.g.
//
//	SplitAny[*ReqToken]("dispatch", []core.Token{(*AToken)(nil), (*BToken)(nil)}, fn)
func SplitAny[In Token](name string, outs []Token, fn func(c *Ctx, in In, post func(Token))) *OpDef {
	inT := typeOfGeneric[In]()
	return &OpDef{
		name:     name,
		kind:     KindSplit,
		inTypes:  []reflect.Type{inT},
		outTypes: exemplarTypes(outs),
		run: func(c *Ctx) {
			fn(c, c.in.(In), c.postOut)
		},
	}
}

// LeafAny defines a leaf accepting several input types and/or emitting one
// of several output types; the function must post exactly one token.
func LeafAny(name string, ins, outs []Token, fn func(c *Ctx, in Token, post func(Token))) *OpDef {
	return &OpDef{
		name:     name,
		kind:     KindLeaf,
		inTypes:  exemplarTypes(ins),
		outTypes: exemplarTypes(outs),
		run: func(c *Ctx) {
			fn(c, c.in, c.postOut)
		},
	}
}

// MergeAny defines a merge accepting several input token types.
func MergeAny(name string, ins, outs []Token, fn func(c *Ctx, first Token, next func() (Token, bool)) Token) *OpDef {
	return &OpDef{
		name:     name,
		kind:     KindMerge,
		inTypes:  exemplarTypes(ins),
		outTypes: exemplarTypes(outs),
		run: func(c *Ctx) {
			c.postOut(fn(c, c.in, c.nextIn))
		},
	}
}

// StreamAny defines a stream accepting/emitting several token types.
func StreamAny(name string, ins, outs []Token, fn func(c *Ctx, first Token, next func() (Token, bool), post func(Token))) *OpDef {
	return &OpDef{
		name:     name,
		kind:     KindStream,
		inTypes:  exemplarTypes(ins),
		outTypes: exemplarTypes(outs),
		run: func(c *Ctx) {
			fn(c, c.in, c.nextIn, c.postOut)
		},
	}
}
