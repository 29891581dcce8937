package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// seqGraph builds split(main, node0) -> record(one thread, node1) ->
// merge(main): the split posts in.N numbered tokens, then calls posted, and
// record passes each token's number to observe before forwarding it.
func seqGraph(t *testing.T, app *core.App, posted func(), observe func(seq int)) *core.Flowgraph {
	t.Helper()
	main := core.MustCollection[struct{}](app, "main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	one := core.MustCollection[struct{}](app, "one")
	if err := one.Map("node1"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *SeqToken]("seq-split",
		func(c *core.Ctx, in *CountToken, post func(*SeqToken)) {
			for i := 0; i < in.N; i++ {
				post(&SeqToken{Seq: i})
			}
			posted()
		})
	record := core.Leaf[*SeqToken, *SeqToken]("seq-record",
		func(c *core.Ctx, in *SeqToken) *SeqToken {
			observe(in.Seq)
			return in
		})
	merge := core.Merge[*SeqToken, *CountToken]("seq-merge",
		func(c *core.Ctx, first *SeqToken, next func() (*SeqToken, bool)) *CountToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &CountToken{N: n}
		})
	g, err := app.NewFlowgraph("seq", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(record, one, core.MainRoute()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFIFOPerInstance posts a numbered stream to one single-thread collection
// and checks the leaf observed the tokens in posting order — the per-instance
// FIFO guarantee, with the split stalling on a small window, on a large one,
// and never (a window as large as the stream).
func TestFIFOPerInstance(t *testing.T) {
	const tokens = 2000
	for _, window := range []int{8, 32, tokens} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			app := newLocalApp(t, core.Config{Window: window}, "node0", "node1")
			var seen []int // written by the one record thread, read after the call
			g := seqGraph(t, app, func() {}, func(seq int) { seen = append(seen, seq) })
			out, err := callWithin(g, app.MasterNode(), &CountToken{N: tokens}, 120*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.(*CountToken).N; got != tokens {
				t.Fatalf("merged %d of %d", got, tokens)
			}
			for i, v := range seen {
				if v != i {
					t.Fatalf("FIFO order violated at %d: got %d", i, v)
				}
			}
		})
	}
}

// TestDeepDispatchQueue: with a flow-control window as large as its stream
// a split can put any number of tokens in front of one slow thread. They all
// wait in its dispatch queue, which has no cap — the engine starts no
// goroutine per token, however deep the queue gets — and run in posting
// order.
func TestDeepDispatchQueue(t *testing.T) {
	const tokens = 5000
	app := newLocalApp(t, core.Config{Window: tokens}, "node0", "node1")
	posted := make(chan struct{})
	var seen []int
	g := seqGraph(t, app, func() { close(posted) }, func(seq int) {
		<-posted // the thread is slow: nothing runs until the whole stream is queued
		seen = append(seen, seq)
	})
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: tokens}, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*CountToken).N; got != tokens {
		t.Fatalf("merged %d of %d", got, tokens)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("FIFO order violated at %d: got %d", i, v)
		}
	}
	st := app.Stats()
	if st.QueueHighWater <= 1024 {
		t.Fatalf("QueueHighWater = %d with %d tokens queued behind a blocked thread", st.QueueHighWater, tokens)
	}
	if st.SchedWorkersStarted > 32 {
		t.Fatalf("%d goroutines started for %d queued tokens, want a few drainers", st.SchedWorkersStarted, tokens)
	}
}

// TestDeepNesting chains three levels of split-merge constructs.
func TestDeepNesting(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0 node1"); err != nil {
		t.Fatal(err)
	}
	mkSplit := func(name string, fan int) *core.OpDef {
		return core.Split[*CountToken, *CountToken](name,
			func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
				for i := 0; i < fan; i++ {
					post(&CountToken{N: in.N})
				}
			})
	}
	mkMerge := func(name string) *core.OpDef {
		return core.Merge[*CountToken, *CountToken](name,
			func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
				sum := 0
				for in, ok := first, true; ok; in, ok = next() {
					sum += in.N
				}
				return &CountToken{N: sum}
			})
	}
	work := core.Leaf[*CountToken, *CountToken]("w3",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })

	g, err := app.NewFlowgraph("deep", core.Path(
		core.NewNode(mkSplit("s1", 3), tc, core.MainRoute()),
		core.NewNode(mkSplit("s2", 4), tc, core.RoundRobin()),
		core.NewNode(mkSplit("s3", 5), tc, core.RoundRobin()),
		core.NewNode(work, tc, core.RoundRobin()),
		core.NewNode(mkMerge("m3"), tc, core.RoundRobin()),
		core.NewNode(mkMerge("m2"), tc, core.RoundRobin()),
		core.NewNode(mkMerge("m1"), tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 1}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 3*4*5 = 60 leaves, each carrying N=1, summed back up.
	if got := out.(*CountToken).N; got != 60 {
		t.Fatalf("deep nesting sum = %d, want 60", got)
	}
}

// TestWideFanOut pushes 5000 tokens through one split-merge pair, far
// beyond the flow-control window.
func TestWideFanOut(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 32}, "node0", "node1", "node2")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0 node1 node2"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *CountToken]("wide-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: 1})
			}
		})
	work := core.Leaf[*CountToken, *CountToken]("wide-work",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	merge := core.Merge[*CountToken, *SumToken]("wide-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Calls: n}
		})
	g, err := app.NewFlowgraph("wide", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(work, tc, core.RoundRobin()),
		core.NewNode(merge, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	const tokens = 5000
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: tokens}, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SumToken).Calls; got != tokens {
		t.Fatalf("merged %d of %d tokens", got, tokens)
	}
	if stalls := app.Stats().WindowStalls; stalls == 0 {
		t.Error("expected flow-control stalls with window 32 and 5000 tokens")
	}
}

// TestServiceCallMidGraph places a graph call between a split and a merge:
// every sub-task of the outer construct invokes another graph as if it were
// a leaf (the composition Figure 10 enables).
func TestServiceCallMidGraph(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")

	// Inner service: squares a number via its own split/merge (sum of N
	// copies of N).
	svcTC := core.MustCollection[struct{}](app, "svc")
	if err := svcTC.Map("node1"); err != nil {
		t.Fatal(err)
	}
	svcSplit := core.Split[*CountToken, *CountToken]("svc-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: in.N})
			}
		})
	svcMerge := core.Merge[*CountToken, *SumToken]("svc-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.N
			}
			return &SumToken{Sum: sum}
		})
	svc, err := app.NewFlowgraph("square-service", core.Path(
		core.NewNode(svcSplit, svcTC, core.MainRoute()),
		core.NewNode(svcMerge, svcTC, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	// Outer graph: split 1..4, call the service per token, sum the squares.
	outTC := core.MustCollection[struct{}](app, "outer")
	if err := outTC.Map("node0"); err != nil {
		t.Fatal(err)
	}
	outSplit := core.Split[*CountToken, *CountToken]("outer-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 1; i <= in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	callOp := core.GraphCallOp("call-square", svc)
	outMerge := core.Merge[*SumToken, *SumToken]("outer-merge",
		func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &SumToken{Sum: sum}
		})
	g, err := app.NewFlowgraph("sum-squares", core.Path(
		core.NewNode(outSplit, outTC, core.MainRoute()),
		core.NewNode(callOp, outTC, core.MainRoute()),
		core.NewNode(outMerge, outTC, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 4}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 4 + 9 + 16 = 30.
	if got := out.(*SumToken).Sum; got != 30 {
		t.Fatalf("sum of squares = %d, want 30", got)
	}
}

// TestConcurrentCallsKeepStateConsistent hammers a stateful collection with
// concurrent calls of two different graphs sharing the same threads.
func TestConcurrentCallsKeepStateConsistent(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	workers := core.MustCollection[counterState](app, "workers")
	if err := workers.Map("node0 node1"); err != nil {
		t.Fatal(err)
	}
	main := core.MustCollection[struct{}](app, "main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	addGraph := func(name string, delta int) *core.Flowgraph {
		split := core.Split[*CountToken, *CountToken](name+"-split",
			func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
				for i := 0; i < in.N; i++ {
					post(&CountToken{N: i})
				}
			})
		add := core.Leaf[*CountToken, *CountToken](name+"-add",
			func(c *core.Ctx, in *CountToken) *CountToken {
				st := core.StateOf[counterState](c)
				st.mine += delta
				return in
			})
		merge := core.Merge[*CountToken, *SumToken](name+"-merge",
			func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
				n := 0
				for _, ok := first, true; ok; _, ok = next() {
					n++
				}
				return &SumToken{Calls: n}
			})
		g, err := app.NewFlowgraph(name, core.Path(
			core.NewNode(split, main, core.MainRoute()),
			core.NewNode(add, workers, core.ByKey[*CountToken](name+"-route", func(in *CountToken) int { return in.N })),
			core.NewNode(merge, main, core.MainRoute()),
		))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1 := addGraph("inc1", 1)
	g2 := addGraph("inc10", 10)

	const per = 20
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := callWithin(g1, app.MasterNode(), &CountToken{N: 8}, 60*time.Second); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := callWithin(g2, app.MasterNode(), &CountToken{N: 8}, 60*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Read back the two thread states through a third graph: total must be
	// per*8*(1+10) across both threads.
	readSplit := core.Split[*CountToken, *CountToken]("read-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			post(&CountToken{N: 0})
			post(&CountToken{N: 1})
		})
	report := core.Leaf[*CountToken, *SumToken]("read-state",
		func(c *core.Ctx, in *CountToken) *SumToken {
			return &SumToken{Sum: core.StateOf[counterState](c).mine}
		})
	total := core.Merge[*SumToken, *SumToken]("read-total",
		func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &SumToken{Sum: sum}
		})
	g3, err := app.NewFlowgraph("read-back", core.Path(
		core.NewNode(readSplit, main, core.MainRoute()),
		core.NewNode(report, workers, core.ByKey[*CountToken]("read-route", func(in *CountToken) int { return in.N })),
		core.NewNode(total, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g3, app.MasterNode(), &CountToken{}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := per * 8 * 11
	if got := out.(*SumToken).Sum; got != want {
		t.Fatalf("state total = %d, want %d (operations on one thread must be serialized)", got, want)
	}
}
