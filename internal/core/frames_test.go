package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serial"
)

type deepTok struct{ Path, Sum int }

// TestDeepFrameStackThroughEveryKind nests splits deeper than an envelope's
// inline frame array holds and sends every token through encode, decode and
// postOut of each operation kind: the splits push the stack from 0 to 4
// frames, a leaf carries 4 on, a stream pops one and pushes its own, and the
// merges pop back down to none. Every hop is serialized, so each stack is
// rebuilt by decodeToken and copied by postOut — inline up to three
// frames, on the heap beyond.
func TestDeepFrameStackThroughEveryKind(t *testing.T) {
	const depth = inlineFrames + 1
	reg := serial.NewRegistry()
	if err := serial.Register[deepTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewLocalApp(Config{ForceSerialize: true, Registry: reg}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	var on [3]*ThreadCollection
	for i, node := range []string{"a", "b", "c"} {
		if on[i], err = NewCollection[struct{}](app, "on-"+node); err != nil {
			t.Fatal(err)
		}
		if err := on[i].Map(node); err != nil {
			t.Fatal(err)
		}
	}
	var spilled, inline atomic.Int64
	// note records the depth and storage of the executing operation's input
	// stack, checking the storage rule on the way.
	note := func(c *Ctx, want int) {
		fr := c.env.frames()
		if len(fr) != want {
			t.Errorf("%s %q runs with %d frames, want %d", c.node.op.kind, c.node.op.name, len(fr), want)
		}
		switch {
		case len(fr) == 0:
		case &fr[0] == &c.env.inline[0]:
			inline.Add(1)
			if len(fr) > inlineFrames {
				t.Errorf("%d frames in an array of %d", len(fr), inlineFrames)
			}
		default:
			spilled.Add(1)
			if len(fr) <= inlineFrames {
				t.Errorf("%s %q: a stack of %d frames is on the heap", c.node.op.kind, c.node.op.name, len(fr))
			}
		}
	}
	var nodes []*GraphNode
	add := func(op *OpDef) { nodes = append(nodes, NewNode(op, on[len(nodes)%3], MainRoute())) }
	for level := 0; level < depth; level++ {
		add(Split[*deepTok, *deepTok]("cut", func(c *Ctx, in *deepTok, post func(*deepTok)) {
			note(c, level)
			post(&deepTok{Path: 2 * in.Path})
			post(&deepTok{Path: 2*in.Path + 1})
		}))
	}
	add(Leaf[*deepTok, *deepTok]("weigh", func(c *Ctx, in *deepTok) *deepTok {
		note(c, depth)
		return &deepTok{Path: in.Path, Sum: in.Path}
	}))
	add(Stream[*deepTok, *deepTok]("relay", func(c *Ctx, first *deepTok, next func() (*deepTok, bool), post func(*deepTok)) {
		note(c, depth)
		for in, ok := first, true; ok; in, ok = next() {
			post(in)
		}
	}))
	for level := depth; level > 0; level-- {
		add(Merge[*deepTok, *deepTok]("join", func(c *Ctx, first *deepTok, next func() (*deepTok, bool)) *deepTok {
			note(c, level)
			out := &deepTok{}
			for in, ok := first, true; ok; in, ok = next() {
				out.Sum += in.Sum
			}
			return out
		}))
	}
	g, err := app.NewFlowgraph("deep", Path(nodes...))
	if err != nil {
		t.Fatal(err)
	}
	const leaves = 1 << depth
	for call := 0; call < 20; call++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := g.Call(ctx, &deepTok{})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.(*deepTok).Sum, leaves*(leaves-1)/2; got != want {
			t.Fatalf("call %d: the leaves' paths sum to %d, want %d", call, got, want)
		}
	}
	if spilled.Load() == 0 || inline.Load() == 0 {
		t.Fatalf("%d executions ran on an inline stack, %d on a spilled one; the graph must exercise both", inline.Load(), spilled.Load())
	}
}
