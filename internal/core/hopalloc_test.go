package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/race"
	"repro/internal/serial"
)

type hopTok struct{ N int }

// hopParts are what the budget graphs' splits post: the bodies allocate
// nothing, so every object counted is the engine's.
var hopParts = [2]*hopTok{{N: 0}, {N: 1}}

// hopGraph is split (a) -> leaves chained over b, c, b... -> merge (a), the
// split posting parts tokens.
func hopGraph(t *testing.T, app *App, leaves, parts int) *Flowgraph {
	t.Helper()
	name := fmt.Sprintf("hop-%d-%d", leaves, parts)
	on := func(suffix, node string) *ThreadCollection {
		tc, err := NewCollection[struct{}](app, name+suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.Map(node); err != nil {
			t.Fatal(err)
		}
		return tc
	}
	main := on("-main", "a")
	nodes := []*GraphNode{NewNode(Split[*hopTok, *hopTok](name+"-split", func(c *Ctx, in *hopTok, post func(*hopTok)) {
		for _, p := range hopParts[:parts] {
			post(p)
		}
	}), main, MainRoute())}
	for i := 0; i < leaves; i++ {
		leaf := Leaf[*hopTok, *hopTok](fmt.Sprintf("%s-leaf%d", name, i), func(c *Ctx, in *hopTok) *hopTok { return in })
		nodes = append(nodes, NewNode(leaf, on(fmt.Sprintf("-work%d", i), []string{"b", "c"}[i%2]), MainRoute()))
	}
	nodes = append(nodes, NewNode(Merge[*hopTok, *hopTok](name+"-merge", func(c *Ctx, first *hopTok, next func() (*hopTok, bool)) *hopTok {
		for _, ok := next(); ok; _, ok = next() {
		}
		return first
	}), main, MainRoute()))
	g, err := app.NewFlowgraph(name, Path(nodes...))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHopAllocationBudget pins what one token hop — receive, decode,
// enqueue, execute, post, encode, send — allocates once pools and queues are
// warm: what outlives it (the decoded value; DESIGN.md, "What a hop
// allocates") and the one Ctx user code is handed a pointer to. Three inproc
// nodes under ForceSerialize, so every hop crosses a transport in a pooled
// wire buffer; the operation bodies allocate nothing. Hops are counted as
// differences between graphs that differ by exactly that hop, which cancels
// what a call costs by itself.
func TestHopAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled envelopes and buffers are reallocated at random")
	}
	reg := serial.NewRegistry()
	if err := serial.Register[hopTok](reg); err != nil {
		t.Fatal(err)
	}
	newApp := func(cfg Config) *App {
		app, err := NewLocalApp(cfg, "a", "b", "c")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(app.Close)
		return app
	}
	plain := newApp(Config{ForceSerialize: true, Registry: reg})
	// Fault tolerance on, with a checkpoint interval no run of the test
	// reaches: every hop is sequenced and retained, and no checkpoint's own
	// objects land in the count.
	sequenced := newApp(Config{ForceSerialize: true, Registry: reg, Checkpoint: time.Hour})
	in := &hopTok{N: 7}
	perCall := func(app *App, leaves, parts int) float64 {
		g := hopGraph(t, app, leaves, parts)
		call := func() {
			if out, err := g.Call(context.Background(), in); err != nil || out.(*hopTok).N != 0 {
				t.Fatalf("call: %v, %v", out, err)
			}
		}
		for i := 0; i < 50; i++ {
			call() // create the thread instances, grow the queues, fill the pools
		}
		return testing.AllocsPerRun(200, call)
	}
	base := map[*App]float64{plain: perCall(plain, 1, 1), sequenced: perCall(sequenced, 1, 1)}
	t.Logf("a call of split, one leaf, merge allocates %.0f objects, %.1f with fault tolerance on", base[plain], base[sequenced])
	for _, c := range []struct {
		hop           string
		app           *App
		leaves, parts int
		want          float64
		what          string
	}{
		{"leaf", plain, 2, 1, 2, "the decoded token and the execution's Ctx"},
		{"split post + leaf + merge consume", plain, 1, 2, 3,
			"a leaf hop and the token decoded at the merge; the group's buffer, where the second token of a group is the first to wait, starts from the array the merge instance's previous group handed down"},
		{"sequenced leaf", sequenced, 2, 1, 3,
			"a leaf hop, and the retained copy of the sequenced frame, which ftOutbound sizes from its header and the codec's size pass and allocates once, outside the wire pool; the stream stamp itself allocates nothing"},
	} {
		if got := perCall(c.app, c.leaves, c.parts) - base[c.app]; got != c.want {
			t.Errorf("one more %s hop allocates %.2f objects, want %.0f: %s", c.hop, got, c.want, c.what)
		}
	}
}

// TestSequencedGroupEndAllocatesOnce: the retained copy of a sequenced
// group-end is sized once, like a sequenced token's (ftOutbound), so
// stamping and retaining one allocates that copy and nothing else.
func TestSequencedGroupEndAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	app, err := NewLocalApp(Config{}, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	rt, _ := app.runtime("a")
	s := ft.NewState(ft.Stream{Sender: 1})
	m := &groupEndMsg{Graph: testGraph(idTable{}, "a-graph"), Node: 2, Thread: 3, GroupID: 1 << 40, Total: 12, CallID: 1 << 33}
	in := ft.Stream{Sender: 2, In: 5}
	if got := testing.AllocsPerRun(1000, func() { rt.ftOutboundGroupEnd(m, s, in, 9, "coll", 1) }); got != 1 {
		t.Errorf("a sequenced group-end allocates %.0f objects, want 1: its retained copy", got)
	}
	e := s.EntriesTo(place.Key{Collection: "coll", Thread: 1})
	last := e[len(e)-1].Bytes
	if want := appendGroupEndFT(nil, m); string(last) != string(want) || cap(last) != len(last) {
		t.Errorf("retained %x (cap %d), want the sequenced frame %x at its exact length", last, cap(last), want)
	}
}

// TestCallWatcherAllocations: a synchronous caller is its own call's
// cancellation watcher — it waits on its context's Done channel next to the
// result — so a cancelable context costs a call nothing beyond that lazily
// made channel: no context.AfterFunc registration, no closure, no
// parent-children entry. The context's own objects are measured alone and
// subtracted.
func TestCallWatcherAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled envelopes and buffers are reallocated at random")
	}
	reg := serial.NewRegistry()
	if err := serial.Register[hopTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewLocalApp(Config{ForceSerialize: true, Registry: reg}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	g := hopGraph(t, app, 1, 1)
	in := &hopTok{N: 7}
	call := func(ctx context.Context) {
		if out, err := g.Call(ctx, in); err != nil || out.(*hopTok).N != 0 {
			t.Fatalf("call: %v, %v", out, err)
		}
	}
	for i := 0; i < 50; i++ {
		call(context.Background())
	}
	background := testing.AllocsPerRun(200, func() { call(context.Background()) })
	ctxAlone := testing.AllocsPerRun(200, func() {
		_, cancel := context.WithCancel(context.Background())
		cancel()
	})
	cancelable := testing.AllocsPerRun(200, func() {
		ctx, cancel := context.WithCancel(context.Background())
		call(ctx)
		cancel()
	})
	if extra := cancelable - ctxAlone - background; extra > 1 {
		t.Errorf("a call under a cancelable context allocates %.0f objects more than under context.Background(), want at most 1 (the context's Done channel)", extra)
	}
}

// TestRetainedCtxStaysWithItsExecution: the one object an execution allocates
// is the Ctx its body is handed, and it is never reused — so a body that
// keeps the pointer (or the post function bound to it) past its return holds
// a finished execution and nothing else. A stale post does what it did
// before executions lived inside their Ctx: it finds the execution's
// envelope gone and panics in the caller's goroutine; it cannot post into
// the call that is running by then.
func TestRetainedCtxStaysWithItsExecution(t *testing.T) {
	reg := serial.NewRegistry()
	if err := serial.Register[hopTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewLocalApp(Config{Registry: reg}, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	tc, err := NewCollection[struct{}](app, "keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Map("a"); err != nil {
		t.Fatal(err)
	}
	type kept struct {
		c    *Ctx
		post func(Token)
	}
	var seen []kept
	entered, release := make(chan struct{}), make(chan struct{})
	leaf := LeafAny("keeper", []Token{(*hopTok)(nil)}, []Token{(*hopTok)(nil)}, func(c *Ctx, in Token, post func(Token)) {
		seen = append(seen, kept{c, post}) // executions of one thread are serialized
		if in.(*hopTok).N == 2 {
			entered <- struct{}{}
			<-release
		}
		post(&hopTok{N: 10 * in.(*hopTok).N})
	})
	g, err := app.NewFlowgraph("keep", Path(NewNode(leaf, tc, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := g.Call(context.Background(), &hopTok{N: 1}); err != nil || out.(*hopTok).N != 10 {
		t.Fatalf("first call: %v, %v", out, err)
	}
	second := make(chan Token, 1)
	go func() {
		out, err := g.Call(context.Background(), &hopTok{N: 2})
		if err != nil {
			t.Error(err)
		}
		second <- out
	}()
	<-entered // the second call's execution is inside its body
	stale, live := seen[0], seen[1]
	if stale.c == live.c {
		t.Fatal("two executions were handed the same Ctx")
	}
	if stale.c.callID == live.c.callID || stale.c.in.(*hopTok).N != 1 || stale.c.env != nil {
		t.Fatalf("the finished execution's Ctx reads call %d, input %v, envelope %p; want its own call and input and no envelope",
			stale.c.callID, stale.c.in, stale.c.env)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a post through a finished execution's Ctx went somewhere")
			}
		}()
		stale.post(&hopTok{N: 666})
	}()
	close(release)
	if out := <-second; out == nil || out.(*hopTok).N != 20 {
		t.Fatalf("the running call returned %v, want its own result", out)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("the stale post failed the application: %v", err)
	}
}
