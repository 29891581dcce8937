package core_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
)

// TestLoadBalancedRoute verifies the credit-based scheme: with one worker
// thread artificially slow, most tokens should drain to the fast workers.
func TestLoadBalancedRoute(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 8}, "node0", "node1", "node2")
	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[counterState](app, "workers")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("node1 node2"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	perThread := make(map[int]int)

	split := core.Split[*CountToken, *CountToken]("lb-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	work := core.Leaf[*CountToken, *CountToken]("lb-work",
		func(c *core.Ctx, in *CountToken) *CountToken {
			mu.Lock()
			perThread[c.ThreadIndex()]++
			mu.Unlock()
			if c.ThreadIndex() == 0 {
				time.Sleep(3 * time.Millisecond) // slow worker
			}
			return in
		})
	merge := core.Merge[*CountToken, *SumToken]("lb-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Calls: n}
		})

	g, err := app.NewFlowgraph("lb", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(work, workers, core.LoadBalanced()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	const total = 120
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: total}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SumToken).Calls; got != total {
		t.Fatalf("merged %d, want %d", got, total)
	}
	mu.Lock()
	slow, fast := perThread[0], perThread[1]
	mu.Unlock()
	if slow+fast != total {
		t.Fatalf("accounted %d+%d != %d", slow, fast, total)
	}
	if fast <= slow {
		t.Fatalf("load balancing ineffective: slow=%d fast=%d", slow, fast)
	}
}

// TestGraphCallAsLeaf exposes one graph as a service and calls it from a
// second graph of the same application (paper Figure 10's mechanics).
func TestGraphCallAsLeaf(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	g := buildUppercase(t, app, "service", "node0 node1")

	client := core.MustCollection[struct{}](app, "client")
	if err := client.Map("node0"); err != nil {
		t.Fatal(err)
	}
	wrap := core.Leaf[*CountToken, *StringToken]("make-request",
		func(c *core.Ctx, in *CountToken) *StringToken {
			return &StringToken{Str: strings.Repeat("ab", in.N)}
		})
	callOp := core.GraphCallOp("call-upper", g)
	g2, err := app.NewFlowgraph("client-graph", core.Path(
		core.NewNode(wrap, client, core.MainRoute()),
		core.NewNode(callOp, client, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g2, app.MasterNode(), &CountToken{N: 3}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "ABABAB" {
		t.Fatalf("got %q", got)
	}
}

// TestCrossApplicationServiceCall calls a graph exposed by a *different*
// application: the paper's interoperable parallel components.
func TestCrossApplicationServiceCall(t *testing.T) {
	serviceApp := newLocalApp(t, core.Config{}, "svc0", "svc1")
	service := buildUppercase(t, serviceApp, "upper-service", "svc0 svc1")

	clientApp := newLocalApp(t, core.Config{}, "cli0")
	client := core.MustCollection[struct{}](clientApp, "client")
	if err := client.Map("cli0"); err != nil {
		t.Fatal(err)
	}
	callOp := core.GraphCallOp("call-foreign", service)
	g, err := clientApp.NewFlowgraph("client", core.Path(
		core.NewNode(callOp, client, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, clientApp.MasterNode(), &StringToken{Str: "cross app"}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "CROSS APP" {
		t.Fatalf("got %q", got)
	}
}

// --- failure injection --------------------------------------------------

func TestOperationPanicFailsCall(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	bad := core.Leaf[*CountToken, *CountToken]("explode",
		func(c *core.Ctx, in *CountToken) *CountToken { panic("boom") })
	g, err := app.NewFlowgraph("bad", core.Path(core.NewNode(bad, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callWithin(g, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
	if app.Err() == nil {
		t.Fatal("app error not recorded")
	}
	// Subsequent calls fail fast.
	if _, err := g.Call(context.Background(), &CountToken{}); err == nil {
		t.Fatal("expected failed app to reject calls")
	}
}

func TestSplitZeroTokensFails(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	empty := core.Split[*CountToken, *CountToken]("empty-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {})
	merge := core.Merge[*CountToken, *CountToken]("m",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
			for _, ok := first, true; ok; _, ok = next() {
			}
			return first
		})
	g, err := app.NewFlowgraph("zero", core.Path(
		core.NewNode(empty, tc, core.MainRoute()),
		core.NewNode(merge, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callWithin(g, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "posted no tokens") {
		t.Fatalf("expected zero-post error, got %v", err)
	}
}

func TestLeafMustPostExactlyOnce(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	// LeafAny lets us violate the exactly-one rule on purpose.
	bad := core.LeafAny("double-post",
		[]core.Token{(*CountToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) {
			post(in)
			post(in)
		})
	sink := core.Merge[*CountToken, *CountToken]("sink",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
			for _, ok := first, true; ok; _, ok = next() {
			}
			return first
		})
	split := core.Split[*CountToken, *CountToken]("s1",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) { post(in) })
	g, err := app.NewFlowgraph("doublepost", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(bad, tc, core.MainRoute()),
		core.NewNode(sink, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callWithin(g, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err == nil {
		t.Fatal("expected error for leaf posting twice")
	}
}

func TestMergeMustDrainGroup(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *CountToken]("s2",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < 5; i++ {
				post(&CountToken{N: i})
			}
		})
	lazy := core.Merge[*CountToken, *CountToken]("lazy-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
			return first // returns without draining
		})
	g, err := app.NewFlowgraph("lazy", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(lazy, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callWithin(g, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "before consuming its group") {
		t.Fatalf("expected drain error, got %v", err)
	}
}

func TestUnregisteredTokenFailsCrossNode(t *testing.T) {
	type hiddenToken struct{ X int }
	reg := serial.NewRegistry()
	if err := serial.Register[CountToken](reg); err != nil {
		t.Fatal(err)
	}
	// hiddenToken deliberately not registered.
	app, err := core.NewLocalApp(core.Config{Registry: reg, ForceSerialize: true}, "node0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	emit := core.Leaf[*CountToken, *hiddenToken]("emit-hidden",
		func(c *core.Ctx, in *CountToken) *hiddenToken { return &hiddenToken{X: 1} })
	g, err := app.NewFlowgraph("hidden", core.Path(core.NewNode(emit, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callWithin(g, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("expected registration error, got %v", err)
	}
}

// TestDynamicRemap rebuilds the mapping between runs — the paper's dynamic
// reconfiguration without recompiling or restarting.
func TestDynamicRemap(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	g := buildUppercase(t, app, "remap", "node1")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "first"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*StringToken).Str != "FIRST" {
		t.Fatalf("got %q", out.(*StringToken).Str)
	}
	// Acquire more resources at runtime: spread compute over three nodes.
	compute, ok := app.Collection("remap-compute")
	if !ok {
		t.Fatal("collection not found")
	}
	if err := compute.Map("node0 node1 node2"); err != nil {
		t.Fatal(err)
	}
	out, err = callWithin(g, app.MasterNode(), &StringToken{Str: "second"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*StringToken).Str != "SECOND" {
		t.Fatalf("got %q", out.(*StringToken).Str)
	}
}

func TestRouteHelpers(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.MapRoundRobin(4); err != nil {
		t.Fatal(err)
	}
	if tc.ThreadCount() != 4 {
		t.Fatalf("ThreadCount = %d", tc.ThreadCount())
	}
	if n, err := tc.NodeOf(3); err != nil || n != "node0" {
		t.Fatalf("NodeOf(3) = %q, %v", n, err)
	}
	if _, err := tc.NodeOf(4); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestCloseReleasesSchedulerGoroutines checks the lifetime of the
// scheduler's warm workers: request/response calls reuse parked goroutines
// instead of starting one per token, and App.Close ends every one of them.
func TestCloseReleasesSchedulerGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	g := buildUppercase(t, app, "upper", "node1 node2")
	const calls = 1000
	for i := 0; i < calls; i++ {
		out, err := g.Call(context.Background(), &StringToken{Str: "warm"})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(*StringToken).Str; got != "WARM" {
			t.Fatalf("call %d returned %q", i, got)
		}
	}
	// Each call is at least six empty -> non-empty queue edges (split, four
	// leaves, merge), each of which used to be a new goroutine; warm, the
	// whole run starts a handful.
	if started := app.Stats().SchedWorkersStarted; started < 1 || started > calls/10 {
		t.Fatalf("%d calls started %d scheduler goroutines, want 1..%d", calls, started, calls/10)
	}
	app.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the app existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
