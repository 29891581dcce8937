package core

import (
	"context"
	"fmt"
	"sync/atomic"
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
	if want := appendGroupEnd(nil, m, place.Direct); string(last) != string(want) || want[0] != msgGroupEnd|flagStamped || cap(last) != len(last) {
		t.Errorf("retained %x (cap %d), want the stamped frame %x at its exact length", last, cap(last), want)
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
// a finished execution and nothing else. A stale post finds the execution's
// envelope gone and panics in the caller's goroutine with errStaleCtx
// before it touches anything; it cannot post into the call that is running
// by then.
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
	for what, use := range map[string]func(){
		"post":       func() { stale.post(&hopTok{N: 666}) },
		"GroupIndex": func() { stale.c.GroupIndex() },
	} {
		if r := staleUse(use); r != errStaleCtx {
			t.Errorf("%s through a finished execution's Ctx panicked with %v, want %q", what, r, errStaleCtx)
		}
	}
	close(release)
	if out := <-second; out == nil || out.(*hopTok).N != 20 {
		t.Fatalf("the running call returned %v, want its own result", out)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("the stale post failed the application: %v", err)
	}
}

// staleUse runs use and returns what it panicked with.
func staleUse(use func()) (r any) {
	defer func() { r = recover() }()
	use()
	return nil
}

// TestStaleCtxCallGraphStartsNoCall: CallGraph through a finished
// execution's Ctx panics with errStaleCtx before it starts anything. It
// used to start a real call and then unlock the thread's execution lock
// under the execution running by then, so the next queued execution ran
// beside it.
func TestStaleCtxCallGraphStartsNoCall(t *testing.T) {
	app, err := NewLocalApp(Config{}, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	keep, other := MustCollection[struct{}](app, "stale-keep"), MustCollection[struct{}](app, "stale-other")
	for _, tc := range []*ThreadCollection{keep, other} {
		if err := tc.Map("a"); err != nil {
			t.Fatal(err)
		}
	}
	var targetRuns atomic.Int64
	target, err := app.NewFlowgraph("stale-target", Path(NewNode(Leaf[*hopTok, *hopTok]("stale-target", func(c *Ctx, in *hopTok) *hopTok {
		targetRuns.Add(1)
		return in
	}), other, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	var first *Ctx
	entered, release, ranThird := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	g, err := app.NewFlowgraph("stale-keep", Path(NewNode(Leaf[*hopTok, *hopTok]("stale-keeper", func(c *Ctx, in *hopTok) *hopTok {
		switch in.N {
		case 1:
			first = c
		case 2:
			entered <- struct{}{}
			<-release
		case 3:
			ranThird <- struct{}{}
		}
		return in
	}), keep, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Call(context.Background(), &hopTok{N: 1}); err != nil {
		t.Fatal(err)
	}
	live, err := g.CallAsync(context.Background(), &hopTok{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	third, err := g.CallAsync(context.Background(), &hopTok{N: 3}) // queued behind the live execution
	if err != nil {
		t.Fatal(err)
	}
	admitted := app.Stats().CallsAdmitted
	if r := staleUse(func() { first.CallGraph(target, &hopTok{N: 666}) }); r != errStaleCtx {
		t.Fatalf("CallGraph through a finished execution's Ctx panicked with %v, want %q", r, errStaleCtx)
	}
	if got := app.Stats().CallsAdmitted; got != admitted || targetRuns.Load() != 0 {
		t.Fatalf("the stale CallGraph admitted %d call(s) and ran the target %d time(s), want none", got-admitted, targetRuns.Load())
	}
	select {
	case <-ranThird:
		t.Fatal("the next queued execution ran beside the live one: the stale CallGraph released the thread's lock")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, ch := range []<-chan CallResult{live, third} {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := app.Err(); err != nil {
		t.Fatalf("the stale CallGraph failed the application: %v", err)
	}
}

// TestHopPoolEnvelopeDraws: a leaf hop draws one envelope, the receiver's,
// decoded from its frame; the post's own lives on the poster's stack and
// the send only borrows it (it used to draw one more there and put it back
// once serialized). Three inproc nodes under ForceSerialize, so every hop
// crosses a transport; counted as the difference between graphs of one and
// two leaves.
func TestHopPoolEnvelopeDraws(t *testing.T) {
	reg := serial.NewRegistry()
	if err := serial.Register[hopTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewLocalApp(Config{ForceSerialize: true, Registry: reg}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	var draws atomic.Int64
	count := func() { draws.Add(1) }
	envelopeGetHook.Store(&count)
	t.Cleanup(func() { envelopeGetHook.Store(nil) })
	const calls = 100
	perCall := func(leaves int) int64 {
		g := hopGraph(t, app, leaves, 1)
		before := draws.Load()
		for i := 0; i < calls; i++ {
			if _, err := g.Call(context.Background(), &hopTok{N: 7}); err != nil {
				t.Fatal(err)
			}
		}
		return draws.Load() - before
	}
	one, two := perCall(1), perCall(2)
	if got := float64(two-one) / calls; got != 1 {
		t.Errorf("one more leaf hop draws %.2f envelopes, want 1 (a call of one leaf draws %.2f)", got, float64(one)/calls)
	}
}
