package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Token types of the paper's tutorial application (§3): a string is split
// into characters, uppercased in parallel, and merged back.
type StringToken struct {
	Str string
}

type CharToken struct {
	Chr byte
	Pos int
}

var (
	_ = serial.MustRegister[StringToken]()
	_ = serial.MustRegister[CharToken]()
)

// buildUppercase constructs the tutorial graph on the given app:
// SplitString -> ToUpperCase -> MergeString.
func buildUppercase(t testing.TB, app *core.App, graphName string, computeMapping string) *core.Flowgraph {
	t.Helper()
	main := core.MustCollection[struct{}](app, graphName+"-main")
	compute := core.MustCollection[struct{}](app, graphName+"-compute")
	if err := main.Map(app.MasterNode()); err != nil {
		t.Fatal(err)
	}
	if err := compute.Map(computeMapping); err != nil {
		t.Fatal(err)
	}

	split := core.Split[*StringToken, *CharToken]("SplitString",
		func(c *core.Ctx, in *StringToken, post func(*CharToken)) {
			for i := 0; i < len(in.Str); i++ {
				post(&CharToken{Chr: in.Str[i], Pos: i})
			}
		})
	upper := core.Leaf[*CharToken, *CharToken]("ToUpperCase",
		func(c *core.Ctx, in *CharToken) *CharToken {
			ch := in.Chr
			if ch >= 'a' && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			return &CharToken{Chr: ch, Pos: in.Pos}
		})
	merge := core.Merge[*CharToken, *StringToken]("MergeString",
		func(c *core.Ctx, first *CharToken, next func() (*CharToken, bool)) *StringToken {
			buf := make(map[int]byte)
			max := -1
			for in, ok := first, true; ok; in, ok = next() {
				buf[in.Pos] = in.Chr
				if in.Pos > max {
					max = in.Pos
				}
			}
			out := make([]byte, max+1)
			for p, ch := range buf {
				out[p] = ch
			}
			return &StringToken{Str: string(out)}
		})

	route := core.ByKey[*CharToken]("RoundRobinRoute", func(in *CharToken) int { return in.Pos })
	b := core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(upper, compute, route),
		core.NewNode(merge, main, core.MainRoute()),
	)
	g, err := app.NewFlowgraph(graphName, b)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newLocalApp(t testing.TB, cfg core.Config, nodes ...string) *core.App {
	t.Helper()
	app, err := core.NewLocalApp(cfg, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

// callWithin is core.Flowgraph.CallFrom under a context.WithTimeout of d.
func callWithin(g *core.Flowgraph, origin string, tok core.Token, d time.Duration) (core.Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

func TestUppercaseSingleNode(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	g := buildUppercase(t, app, "upper", "node0")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "hello, world"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "HELLO, WORLD" {
		t.Fatalf("got %q", got)
	}
}

func TestUppercaseMultiNode(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	g := buildUppercase(t, app, "upper", "node1*2 node2")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "dynamic parallel schedules"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "DYNAMIC PARALLEL SCHEDULES" {
		t.Fatalf("got %q", got)
	}
}

func TestUppercaseForceSerialize(t *testing.T) {
	// The paper's several-kernels-per-host debug mode: serialization even
	// for local transfers.
	app := newLocalApp(t, core.Config{ForceSerialize: true}, "node0")
	g := buildUppercase(t, app, "upper", "node0")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "force"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "FORCE" {
		t.Fatalf("got %q", got)
	}
}

func TestUppercaseOverSimnet(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 100e6, Latency: 20 * time.Microsecond, TimeScale: 1})
	defer net.Close()
	trs, err := transport.SimNodes(net, "n0", "n1", "n2", "n3")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	g := buildUppercase(t, app, "upper", "n1 n2 n3")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "simnet"}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "SIMNET" {
		t.Fatalf("got %q", got)
	}
}

// TestCallsCompletedCountsWireResults: a completed call is counted once, on
// its origin node, whether the result was handed over locally or crossed
// the wire. The merge runs on the master, so calls entered on n1 get their
// result in a msgResult frame.
func TestCallsCompletedCountsWireResults(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 100e6, Latency: 20 * time.Microsecond, TimeScale: 1})
	defer net.Close()
	trs, err := transport.SimNodes(net, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	g := buildUppercase(t, app, "upper", "n1")
	for i, origin := range []string{"n1", "n1", "n1", "n1", "n1", "n0", "n0", "n0"} {
		if _, err := callWithin(g, origin, &StringToken{Str: "count me"}, 20*time.Second); err != nil {
			t.Fatalf("call %d from %s: %v", i, origin, err)
		}
	}
	if got := app.Stats().CallsCompleted; got != 8 {
		t.Fatalf("CallsCompleted = %d after 5 calls from n1 and 3 from the master, want 8", got)
	}
}

func TestPipelinedConcurrentCalls(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	g := buildUppercase(t, app, "upper", "node0 node1")
	const calls = 50
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("call number %d", i)
			out, err := callWithin(g, app.MasterNode(), &StringToken{Str: in}, 20*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if got := out.(*StringToken).Str; got != strings.ToUpper(in) {
				errs <- fmt.Errorf("call %d: got %q", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- Thread state ------------------------------------------------------

type CountToken struct {
	N int
}

type SumToken struct {
	Sum   int
	Calls int
}

type counterState struct {
	mine int
}

var (
	_ = serial.MustRegister[CountToken]()
	_ = serial.MustRegister[SumToken]()
)

func TestThreadStatePersistsAcrossTokens(t *testing.T) {
	// Thread members build distributed data structures: each worker thread
	// accumulates into its private state; a second graph reads it back.
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[counterState](app, "workers")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("node0 node1"); err != nil {
		t.Fatal(err)
	}

	split := core.Split[*CountToken, *CountToken]("fan",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	add := core.Leaf[*CountToken, *CountToken]("add",
		func(c *core.Ctx, in *CountToken) *CountToken {
			st := core.StateOf[counterState](c)
			st.mine += in.N
			return in
		})
	collect := core.Merge[*CountToken, *SumToken]("collect",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Calls: n}
		})

	g, err := app.NewFlowgraph("accumulate", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(add, workers, core.ByKey[*CountToken]("bykey", func(in *CountToken) int { return in.N })),
		core.NewNode(collect, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 10}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SumToken).Calls; got != 10 {
		t.Fatalf("merge saw %d tokens, want 10", got)
	}

	// Read the worker state back through a second graph over the same
	// collection: thread i must hold sum of matching keys.
	readState := core.Split[*CountToken, *CountToken]("readsplit",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < 2; i++ {
				post(&CountToken{N: i})
			}
		})
	report := core.Leaf[*CountToken, *SumToken]("report",
		func(c *core.Ctx, in *CountToken) *SumToken {
			st := core.StateOf[counterState](c)
			return &SumToken{Sum: st.mine}
		})
	total := core.Merge[*SumToken, *SumToken]("total",
		func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &SumToken{Sum: sum}
		})
	g2, err := app.NewFlowgraph("readback", core.Path(
		core.NewNode(readState, main, core.MainRoute()),
		core.NewNode(report, workers, core.ByKey[*CountToken]("direct", func(in *CountToken) int { return in.N })),
		core.NewNode(total, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := callWithin(g2, app.MasterNode(), &CountToken{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// sum over workers of (sum of i routed to them) = 0+1+...+9 = 45.
	if got := out2.(*SumToken).Sum; got != 45 {
		t.Fatalf("distributed state sums to %d, want 45", got)
	}
}
