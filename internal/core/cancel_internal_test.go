package core

// White-box cancellation accounting: canceling a call on a graph with
// nested split–merge groups must leave no split-side group state behind.
// Each inner group's reap owes one acknowledgement to its enclosing group
// (the merge output that would normally carry it never exists), so without
// that settling the outer groups stay non-quiescent in rt.groups forever —
// per-cancellation state growth that wakeBlocked then iterates for the
// application's lifetime.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serial"
)

type nestTok struct {
	N int
}

type nestSum struct {
	Sum int
}

var (
	_ = serial.MustRegister[nestTok]()
	_ = serial.MustRegister[nestSum]()
)

// TestCancelReapsStreamGroups is the stream-shaped variant: the stream
// both closes the split's group and opens its own, so cancellation must
// settle the accounting of two chained groups per call (the stream's
// subtree carries the frame *below* its input group onward — recording the
// wrong frame would over-release the collected group and leak the rest).
func TestCancelReapsStreamGroups(t *testing.T) {
	app, err := NewLocalApp(Config{Window: 2}, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	main := MustCollection[struct{}](app, "s-main")
	if err := main.Map("n0"); err != nil {
		t.Fatal(err)
	}
	work := MustCollection[struct{}](app, "s-work")
	if err := work.Map("n1"); err != nil {
		t.Fatal(err)
	}
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})

	split := Split[*nestTok, *nestTok]("s-split",
		func(c *Ctx, in *nestTok, post func(*nestTok)) {
			for i := 0; i < in.N; i++ {
				post(&nestTok{N: i})
			}
		})
	stage := Leaf[*nestTok, *nestTok]("s-stage",
		func(c *Ctx, in *nestTok) *nestTok {
			if blocking.Load() {
				<-hold
			}
			return in
		})
	relay := Stream[*nestTok, *nestTok]("s-relay",
		func(c *Ctx, first *nestTok, next func() (*nestTok, bool), post func(*nestTok)) {
			for in, ok := first, true; ok; in, ok = next() {
				post(in)
			}
		})
	final := Merge[*nestTok, *nestSum]("s-final",
		func(c *Ctx, first *nestTok, next func() (*nestTok, bool)) *nestSum {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &nestSum{Sum: n}
		})
	g, err := app.NewFlowgraph("s-stream", Path(
		NewNode(split, main, MainRoute()),
		NewNode(stage, work, RoundRobin()),
		NewNode(relay, work, MainRoute()),
		NewNode(final, main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, app.MasterNode(), &nestTok{N: 8})
		done <- err
	}()
	waitWindowStalls(t, app, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled stream call returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled stream call did not return")
	}
	blocking.Store(false)
	close(hold)

	waitGroupsReaped(t, app)
	// The graph must stay fully usable afterwards.
	for i := 0; i < 3; i++ {
		out, err := callWithin(g, app.MasterNode(), &nestTok{N: 5}, 30*time.Second)
		if err != nil {
			t.Fatalf("call %d after stream cancellation: %v", i, err)
		}
		if got := out.(*nestSum).Sum; got != 5 {
			t.Fatalf("call %d merged %d, want 5", i, got)
		}
	}
	waitGroupsReaped(t, app)
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}

// waitWindowStalls returns once n posts have blocked on an exhausted
// flow-control window: the call under test is jammed, not merely started.
func waitWindowStalls(t *testing.T, app *App, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); app.Stats().WindowStalls < n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the call never jammed: %d window stall(s), want %d", app.Stats().WindowStalls, n)
		}
	}
}

// waitGroupsReaped polls until every runtime's split-side group table and
// every instance's merge-side group table are empty and every
// load-balancing credit charge has been released. A lost credit release
// (e.g. an acknowledgement arriving after its group was over-released and
// prematurely reaped) permanently skews LoadBalanced routing.
func waitGroupsReaped(t *testing.T, app *App) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		splitGroups, mergeGroups, credits := 0, 0, 0
		for _, rt := range app.runtimes.load() {
			splitGroups += len(rt.groups.all())
			for _, inst := range rt.threads.load() {
				inst.mu.Lock()
				mergeGroups += len(inst.groups)
				inst.mu.Unlock()
			}
			for _, ct := range rt.credits.load() {
				for i := 0; i < 16; i++ {
					credits += ct.Outstanding(i)
				}
			}
		}
		if splitGroups == 0 && mergeGroups == 0 && credits == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked after cancellation: %d split group(s), %d merge group(s), %d credit charge(s)",
				splitGroups, mergeGroups, credits)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// callWithin is CallFrom under a context.WithTimeout of d.
func callWithin(g *Flowgraph, origin string, tok Token, d time.Duration) (Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

func TestCancelReapsNestedSplitGroups(t *testing.T) {
	app, err := NewLocalApp(Config{Window: 2}, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	main := MustCollection[struct{}](app, "w-main")
	if err := main.Map("n0"); err != nil {
		t.Fatal(err)
	}
	work := MustCollection[struct{}](app, "w-work")
	if err := work.Map("n1"); err != nil {
		t.Fatal(err)
	}
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})

	outerSplit := Split[*nestTok, *nestTok]("w-osplit",
		func(c *Ctx, in *nestTok, post func(*nestTok)) {
			for i := 0; i < in.N; i++ {
				post(&nestTok{N: 4})
			}
		})
	innerSplit := Split[*nestTok, *nestTok]("w-isplit",
		func(c *Ctx, in *nestTok, post func(*nestTok)) {
			for i := 0; i < in.N; i++ {
				post(&nestTok{N: i})
			}
		})
	leaf := Leaf[*nestTok, *nestTok]("w-leaf",
		func(c *Ctx, in *nestTok) *nestTok {
			if blocking.Load() {
				<-hold
			}
			return in
		})
	innerMerge := Merge[*nestTok, *nestSum]("w-imerge",
		func(c *Ctx, first *nestTok, next func() (*nestTok, bool)) *nestSum {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &nestSum{Sum: n}
		})
	outerMerge := Merge[*nestSum, *nestSum]("w-omerge",
		func(c *Ctx, first *nestSum, next func() (*nestSum, bool)) *nestSum {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &nestSum{Sum: sum}
		})
	g, err := app.NewFlowgraph("w-nested", Path(
		NewNode(outerSplit, main, MainRoute()),
		NewNode(innerSplit, work, RoundRobin()),
		NewNode(leaf, work, RoundRobin()),
		NewNode(innerMerge, work, MainRoute()),
		NewNode(outerMerge, main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, app.MasterNode(), &nestTok{N: 8})
		done <- err
	}()
	// The outer split and the first inner split both jam on window 2.
	waitWindowStalls(t, app, 2)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return")
	}
	blocking.Store(false)
	close(hold)

	// Every group — outer split groups and merge-side state included —
	// must drain and reap.
	waitGroupsReaped(t, app)
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}

// TestCancelUnwindDuringBookkeeping pins the one "is this call dead"
// predicate (App.callDead). cancelCall is parked — by the test hook — at the
// point where the call has left the pending table and its cancellation
// record does not exist yet, and an execution of that call unwinds with a
// cancellation error meanwhile (the split body raises it itself, standing in
// for any blocking point that observed the context). The unwind must wait for
// the bookkeeping and then see a canceled call: were it to find the call in
// neither state it would fail the application, hand this call's error to the
// next one and leak the unwound execution's groups.
func TestCancelUnwindDuringBookkeeping(t *testing.T) {
	app, err := NewLocalApp(Config{}, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	parked, resume := make(chan struct{}), make(chan struct{})
	var park, unpark sync.Once
	app.cancelHook = func() {
		park.Do(func() {
			close(parked)
			<-resume
		})
	}
	defer unpark.Do(func() { close(resume) }) // a failing test must not leave the shard locked for Close
	main := MustCollection[struct{}](app, "b-main")
	if err := main.Map("n0"); err != nil {
		t.Fatal(err)
	}
	work := MustCollection[struct{}](app, "b-work")
	if err := work.Map("n1"); err != nil {
		t.Fatal(err)
	}
	posted, unwind, hold := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	split := Split[*nestTok, *nestTok]("b-split", func(c *Ctx, in *nestTok, post func(*nestTok)) {
		for i := 0; i < in.N; i++ {
			post(&nestTok{N: i})
		}
		if first.Swap(false) {
			close(posted)
			<-unwind
			panic(opError{context.Canceled})
		}
	})
	leaf := Leaf[*nestTok, *nestTok]("b-leaf", func(c *Ctx, in *nestTok) *nestTok {
		<-hold
		return in
	})
	merge := Merge[*nestTok, *nestSum]("b-merge", func(c *Ctx, first *nestTok, next func() (*nestTok, bool)) *nestSum {
		n := 0
		for _, ok := first, true; ok; _, ok = next() {
			n++
		}
		return &nestSum{Sum: n}
	})
	g, err := app.NewFlowgraph("b-graph", Path(
		NewNode(split, main, MainRoute()),
		NewNode(leaf, work, RoundRobin()),
		NewNode(merge, main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, app.MasterNode(), &nestTok{N: 3})
		done <- err
	}()
	<-posted
	cancel()
	<-parked
	close(unwind)
	// Hold the bookkeeping until the unwind is asking whether its call is dead.
	stacks := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte("(*App).callDead")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the unwinding execution never asked whether its call is dead")
		}
	}
	unpark.Do(func() { close(resume) })
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v", err)
	}
	close(hold)

	if err := app.Err(); err != nil {
		t.Fatalf("the unwind of a canceled call failed the application: %v", err)
	}
	out, err := callWithin(g, app.MasterNode(), &nestTok{N: 5}, 30*time.Second)
	if err != nil {
		t.Fatalf("the next call inherited the cancellation: %v", err)
	}
	if got := out.(*nestSum).Sum; got != 5 {
		t.Fatalf("the next call merged %d, want 5", got)
	}
	waitGroupsReaped(t, app)
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}

// TestCancelCountsDroppedTokens: the tokens of a canceled call left queued
// behind another call's blocked execution are discarded unexecuted when
// their turn comes, each counted once in Stats.TokensDropped.
func TestCancelCountsDroppedTokens(t *testing.T) {
	app, err := NewLocalApp(Config{}, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	main, work := MustCollection[struct{}](app, "drop-main"), MustCollection[struct{}](app, "drop-work")
	for _, tc := range []*ThreadCollection{main, work} {
		if err := tc.Map("a"); err != nil {
			t.Fatal(err)
		}
	}
	const queued = 5
	hold, posted := make(chan struct{}), make(chan struct{}, 1)
	var ran atomic.Int64
	// A call of N posts N tokens, or one that blocks its leaf for N = 0.
	split := Split[*nestTok, *nestTok]("drop-split", func(c *Ctx, in *nestTok, post func(*nestTok)) {
		if in.N == 0 {
			post(&nestTok{N: -1})
			return
		}
		for i := 0; i < in.N; i++ {
			post(&nestTok{N: i})
		}
		posted <- struct{}{}
	})
	leaf := Leaf[*nestTok, *nestTok]("drop-leaf", func(c *Ctx, in *nestTok) *nestTok {
		if in.N < 0 {
			<-hold
		} else {
			ran.Add(1)
		}
		return in
	})
	merge := Merge[*nestTok, *nestSum]("drop-merge", func(c *Ctx, first *nestTok, next func() (*nestTok, bool)) *nestSum {
		n := 1
		for _, ok := next(); ok; _, ok = next() {
			n++
		}
		return &nestSum{Sum: n}
	})
	g, err := app.NewFlowgraph("drop", Path(NewNode(split, main, MainRoute()), NewNode(leaf, work, MainRoute()), NewNode(merge, main, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := g.CallAsync(context.Background(), &nestTok{N: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceled, err := g.CallAsync(ctx, &nestTok{N: queued})
	if err != nil {
		t.Fatal(err)
	}
	<-posted // every token of the second call waits behind the blocked leaf
	cancel()
	if res := <-canceled; !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled call returned %v, want context.Canceled", res.Err)
	}
	close(hold)
	if res := <-blocker; res.Err != nil || res.Value.(*nestSum).Sum != 1 {
		t.Fatalf("blocking call returned %v, %v", res.Value, res.Err)
	}
	waitGroupsReaped(t, app)
	if got := app.Stats().TokensDropped; got != queued || ran.Load() != 0 {
		t.Fatalf("TokensDropped = %d with %d of the canceled call's tokens executed, want %d and none", got, ran.Load(), queued)
	}
}
