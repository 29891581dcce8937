package dps_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/dps"
)

// Tutorial token types (§3 of the paper).
type reqTok struct {
	Str string
}

type chrTok struct {
	Chr byte
	Pos int
}

type cntTok struct {
	N int
}

var (
	_ = dps.Register[reqTok]()
	_ = dps.Register[chrTok]()
	_ = dps.Register[cntTok]()
)

func newApp(t testing.TB, opts ...dps.Option) *dps.App {
	t.Helper()
	app, err := dps.NewLocal(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

// buildUpper assembles the tutorial uppercase chain with the typed
// builder, returning the compile-time-typed graph.
func buildUpper(t testing.TB, app *dps.App, name string) dps.Graph[*reqTok, *reqTok] {
	t.Helper()
	main := dps.MustCollection[struct{}](app, name+"-main")
	if err := main.Map(app.MasterNode()); err != nil {
		t.Fatal(err)
	}
	work := dps.MustCollection[struct{}](app, name+"-work")
	if err := work.MapRoundRobin(3); err != nil {
		t.Fatal(err)
	}
	split := dps.Split(name+"-split", main, dps.MainRoute(),
		func(c *dps.Ctx, in *reqTok, post func(*chrTok)) {
			for i := 0; i < len(in.Str); i++ {
				post(&chrTok{Chr: in.Str[i], Pos: i})
			}
		})
	upper := dps.Leaf(name+"-upper", work, dps.ByKey[*chrTok]("by-pos", func(in *chrTok) int { return in.Pos }),
		func(c *dps.Ctx, in *chrTok) *chrTok {
			ch := in.Chr
			if ch >= 'a' && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			return &chrTok{Chr: ch, Pos: in.Pos}
		})
	merge := dps.Merge(name+"-merge", main, dps.MainRoute(),
		func(c *dps.Ctx, first *chrTok, next func() (*chrTok, bool)) *reqTok {
			buf := make([]byte, 0, 64)
			for in, ok := first, true; ok; in, ok = next() {
				for len(buf) <= in.Pos {
					buf = append(buf, 0)
				}
				buf[in.Pos] = in.Chr
			}
			return &reqTok{Str: string(buf)}
		})
	return dps.MustBuild(app, name, dps.Then(dps.Then(dps.Chain(split), upper), merge))
}

func TestTypedChainCall(t *testing.T) {
	app := newApp(t, dps.WithNodes("a", "b", "c"), dps.WithWindow(8))
	g := buildUpper(t, app, "upper")
	out, err := g.Call(context.Background(), &reqTok{Str: "dynamic parallel schedules"})
	if err != nil {
		t.Fatal(err)
	}
	// out is *reqTok — no assertion needed, the type checker proved it.
	if out.Str != "DYNAMIC PARALLEL SCHEDULES" {
		t.Fatalf("got %q", out.Str)
	}
}

func TestCallAsyncTyped(t *testing.T) {
	app := newApp(t, dps.WithNodes("a", "b"))
	g := buildUpper(t, app, "upper-async")
	p, err := g.CallAsync(context.Background(), &reqTok{Str: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.Str != "ABC" {
		t.Fatalf("got %q", out.Str)
	}
}

func TestFacadeCancellation(t *testing.T) {
	app := newApp(t, dps.WithNodes("a", "b"), dps.WithWindow(2))
	main := dps.MustCollection[struct{}](app, "main")
	if err := main.Map("a"); err != nil {
		t.Fatal(err)
	}
	work := dps.MustCollection[struct{}](app, "work")
	if err := work.Map("b"); err != nil {
		t.Fatal(err)
	}
	var parked atomic.Bool
	parked.Store(true)
	hold := make(chan struct{})
	split := dps.Split("split", main, dps.MainRoute(),
		func(c *dps.Ctx, in *cntTok, post func(*cntTok)) {
			for i := 0; i < in.N; i++ {
				post(&cntTok{N: i})
			}
		})
	leaf := dps.Leaf("work", work, dps.RoundRobin(),
		func(c *dps.Ctx, in *cntTok) *cntTok {
			if parked.Load() {
				<-hold
			}
			return in
		})
	merge := dps.Merge("merge", main, dps.MainRoute(),
		func(c *dps.Ctx, first *cntTok, next func() (*cntTok, bool)) *cntTok {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &cntTok{N: n}
		})
	g := dps.MustBuild(app, "cancelable", dps.Then(dps.Then(dps.Chain(split), leaf), merge))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Call(ctx, &cntTok{N: 16})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled facade call did not return")
	}
	parked.Store(false)
	close(hold)
	out, err := g.Call(context.Background(), &cntTok{N: 4})
	if err != nil {
		t.Fatalf("second call after cancel: %v", err)
	}
	if out.N != 4 {
		t.Fatalf("merged %d, want 4", out.N)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("app failed after cancellation: %v", err)
	}
}

func TestTypedVerification(t *testing.T) {
	app := newApp(t, dps.WithNodes("a", "b"))
	g := buildUpper(t, app, "verify")
	fg, ok := app.Graph("verify")
	if !ok {
		t.Fatal("named graph not registered")
	}
	if fg != g.Flowgraph() {
		t.Fatal("registered graph differs from built graph")
	}
	// Correct typing succeeds.
	if _, err := dps.Typed[*reqTok, *reqTok](fg); err != nil {
		t.Fatalf("Typed with matching types: %v", err)
	}
	// Entry mismatch is caught.
	if _, err := dps.Typed[*cntTok, *reqTok](fg); err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("entry mismatch not reported, got %v", err)
	}
	// Exit mismatch is caught.
	if _, err := dps.Typed[*reqTok, *cntTok](fg); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("exit mismatch not reported, got %v", err)
	}
}

func TestNewStageVerification(t *testing.T) {
	app := newApp(t, dps.WithNodes("a"))
	g := buildUpper(t, app, "stage-src")
	tc := dps.MustCollection[struct{}](app, "tc")
	if err := tc.Map("a"); err != nil {
		t.Fatal(err)
	}
	op := g.Flowgraph().EntryOp() // split: *reqTok -> *chrTok
	if _, err := dps.NewStage[*reqTok, *chrTok](op, tc, dps.MainRoute()); err != nil {
		t.Fatalf("matching NewStage: %v", err)
	}
	if _, err := dps.NewStage[*chrTok, *chrTok](op, tc, dps.MainRoute()); err == nil {
		t.Fatal("input mismatch not reported")
	}
	if _, err := dps.NewStage[*reqTok, *reqTok](op, tc, dps.MainRoute()); err == nil {
		t.Fatal("output mismatch not reported")
	}
}

func TestCallStageAcrossApps(t *testing.T) {
	// The paper's Figure 10: one application's graph called as a parallel
	// service from another application's graph.
	service := newApp(t, dps.WithNodes("s0", "s1", "s2"))
	sg := buildUpper(t, service, "svc")

	client := newApp(t, dps.WithNodes("c0"))
	ctc := dps.MustCollection[struct{}](client, "client")
	if err := ctc.Map("c0"); err != nil {
		t.Fatal(err)
	}
	call := dps.CallStage("call-svc", sg, ctc, dps.MainRoute())
	cg := dps.MustBuild(client, "caller", dps.Chain(call))
	out, err := cg.Call(context.Background(), &reqTok{Str: "figure ten"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Str != "FIGURE TEN" {
		t.Fatalf("got %q", out.Str)
	}
}

func TestCollectionState(t *testing.T) {
	type counterState struct{ Hits int }
	app := newApp(t, dps.WithNodes("a"))
	main := dps.MustCollection[struct{}](app, "main")
	if err := main.Map("a"); err != nil {
		t.Fatal(err)
	}
	stateful := dps.MustCollection[counterState](app, "stateful")
	if err := stateful.Map("a"); err != nil {
		t.Fatal(err)
	}
	split := dps.Split("split", main, dps.MainRoute(),
		func(c *dps.Ctx, in *cntTok, post func(*cntTok)) {
			for i := 0; i < in.N; i++ {
				post(&cntTok{N: i})
			}
		})
	hit := dps.Leaf("hit", stateful, dps.MainRoute(),
		func(c *dps.Ctx, in *cntTok) *cntTok {
			st := dps.StateOf[counterState](c)
			st.Hits++
			return &cntTok{N: st.Hits}
		})
	merge := dps.Merge("merge", main, dps.MainRoute(),
		func(c *dps.Ctx, first *cntTok, next func() (*cntTok, bool)) *cntTok {
			max := first.N
			for in, ok := first, true; ok; in, ok = next() {
				if in.N > max {
					max = in.N
				}
			}
			return &cntTok{N: max}
		})
	g := dps.MustBuild(app, "stateful", dps.Then(dps.Then(dps.Chain(split), hit), merge))
	out, err := g.Call(context.Background(), &cntTok{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 5 {
		t.Fatalf("thread state counted %d hits, want 5", out.N)
	}
}

func TestOptionErrors(t *testing.T) {
	if _, err := dps.NewLocal(dps.WithNodes()); err == nil {
		t.Fatal("empty WithNodes accepted")
	}
	if _, err := dps.NewLocal(dps.WithWindow(-1)); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestOptionsApply(t *testing.T) {
	// Exercise every option on a real call; ForceSerialize round-trips the
	// tokens even on the single local node, so serialization bugs surface.
	app := newApp(t,
		dps.WithNodes("a", "b"),
		dps.WithForceSerialize(true),
		dps.WithWindow(4),
	)
	g := buildUpper(t, app, "options")
	out, err := g.Call(context.Background(), &reqTok{Str: "options"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Str != "OPTIONS" {
		t.Fatalf("got %q", out.Str)
	}
	if s := app.Stats(); s.TokensPosted == 0 {
		t.Fatal("stats not collected")
	}
}

func TestDefaultNode(t *testing.T) {
	app := newApp(t)
	if got := app.MasterNode(); got != "node0" {
		t.Fatalf("default master node %q", got)
	}
	if names := app.NodeNames(); len(names) != 1 {
		t.Fatalf("default nodes %v", names)
	}
}

// counterState is a migratable thread state used by the live-remap test.
type counterState struct {
	Calls int
}

var _ = dps.Register[counterState]()

// TestLiveRemapThroughFacade drives the placement layer end to end through
// the public API: a stateful collection is remapped between nodes under a
// bounded quiesce, the state travels, and the epoch advances.
func TestLiveRemapThroughFacade(t *testing.T) {
	app := newApp(t, dps.WithNodes("a", "b"))
	work := dps.MustCollection[counterState](app, "remap-work")
	if err := work.Map("a"); err != nil {
		t.Fatal(err)
	}
	count := dps.Leaf("remap-count", work, dps.MainRoute(),
		func(c *dps.Ctx, in *cntTok) *cntTok {
			st := dps.StateOf[counterState](c)
			st.Calls++
			return &cntTok{N: st.Calls}
		})
	g, err := dps.Build(app, "remap-graph", dps.Chain(count))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := g.Call(context.Background(), &cntTok{}); err != nil || out.N != 1 {
		t.Fatalf("first call: %v, %v", out, err)
	}
	before := work.Epoch()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := work.Remap(ctx, "b"); err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if got, _ := work.NodeOf(0); got != "b" {
		t.Fatalf("thread on %q after remap", got)
	}
	if work.Epoch() <= before {
		t.Fatal("epoch did not advance")
	}
	out, err := g.Call(context.Background(), &cntTok{})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 {
		t.Fatalf("state did not travel: counter = %d, want 2", out.N)
	}
	if s := app.Stats(); s.MigrationsCompleted != 1 {
		t.Fatalf("MigrationsCompleted = %d", s.MigrationsCompleted)
	}
}
