package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// buildCancelGraph builds a split -> work -> merge fan with a worker leaf
// that can be parked on the hold channel, jamming the flow-control window.
func buildCancelGraph(t *testing.T, app *core.App, name string, blocking *atomic.Bool, hold chan struct{}) *core.Flowgraph {
	t.Helper()
	main := core.MustCollection[struct{}](app, name+"-main")
	if err := main.Map(app.MasterNode()); err != nil {
		t.Fatal(err)
	}
	work := core.MustCollection[struct{}](app, name+"-work")
	if err := work.MapRoundRobin(2); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *CountToken](name+"-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	leaf := core.Leaf[*CountToken, *CountToken](name+"-work",
		func(c *core.Ctx, in *CountToken) *CountToken {
			if blocking.Load() {
				<-hold
			}
			return in
		})
	merge := core.Merge[*CountToken, *SumToken](name+"-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Sum: n}
		})
	g, err := app.NewFlowgraph(name, core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(leaf, work, core.RoundRobin()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitStalled returns once n posts have blocked on an exhausted flow-control
// window: the call under test is jammed, not merely started.
func waitStalled(t *testing.T, app *core.App, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); app.Stats().WindowStalls < n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the call never jammed: %d window stall(s), want %d", app.Stats().WindowStalls, n)
		}
	}
}

// TestCancelReleasesFlowControl is the cancellation contract end to end: a
// call jammed on an exhausted flow-control window is canceled; the caller
// gets ctx.Err() promptly, the abandoned tokens drain and release their
// window slots, the application stays healthy, and a second call on the
// same graph completes.
func TestCancelReleasesFlowControl(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 2}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	g := buildCancelGraph(t, app, "cancel", &blocking, hold)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, app.MasterNode(), &CountToken{N: 16})
		done <- err
	}()
	// Let the split jam: window 2, workers parked on hold.
	waitStalled(t, app, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return promptly")
	}

	// Unpark the workers so the abandoned tokens drain.
	blocking.Store(false)
	close(hold)

	if err := app.Err(); err != nil {
		t.Fatalf("application failed after cancellation: %v", err)
	}
	// The canceled call must have freed its window slots: a second call
	// through the same split group machinery completes.
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 5}, 30*time.Second)
	if err != nil {
		t.Fatalf("second call after cancellation: %v", err)
	}
	if got := out.(*SumToken).Sum; got != 5 {
		t.Fatalf("second call merged %d tokens, want 5", got)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed after the follow-up call: %v", err)
	}
}

// TestCancelNestedGroupsReleasesOuterWindow: canceling a call on a graph
// with nested split–merge groups must release the *outer* group's window
// slots too (the inner merges never emit the outputs that normally carry
// the outer acknowledgement; the inner groups' reaps settle the debt).
// With a leaked outer window, the repeated calls below would exhaust the
// shared Window policy and wedge.
func TestCancelNestedGroupsReleasesOuterWindow(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 2}, "node0", "node1")
	main := core.MustCollection[struct{}](app, "n-main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	work := core.MustCollection[struct{}](app, "n-work")
	if err := work.Map("node1"); err != nil {
		t.Fatal(err)
	}
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})

	outerSplit := core.Split[*CountToken, *CountToken]("n-osplit",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: 4})
			}
		})
	innerSplit := core.Split[*CountToken, *CountToken]("n-isplit",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	leaf := core.Leaf[*CountToken, *CountToken]("n-leaf",
		func(c *core.Ctx, in *CountToken) *CountToken {
			if blocking.Load() {
				<-hold
			}
			return in
		})
	innerMerge := core.Merge[*CountToken, *SumToken]("n-imerge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Sum: n}
		})
	outerMerge := core.Merge[*SumToken, *SumToken]("n-omerge",
		func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &SumToken{Sum: sum}
		})
	g, err := app.NewFlowgraph("nested", core.Path(
		core.NewNode(outerSplit, main, core.MainRoute()),
		core.NewNode(innerSplit, work, core.RoundRobin()),
		core.NewNode(leaf, work, core.RoundRobin()),
		core.NewNode(innerMerge, work, core.MainRoute()),
		core.NewNode(outerMerge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, app.MasterNode(), &CountToken{N: 8})
		done <- err
	}()
	// The outer split and the first inner split both jam on window 2.
	waitStalled(t, app, 2)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled nested call returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled nested call did not return")
	}
	blocking.Store(false)
	close(hold)

	// Several follow-up calls through the same nested window machinery:
	// leaked outer slots would wedge these within a few iterations.
	for i := 0; i < 4; i++ {
		out, err := callWithin(g, app.MasterNode(), &CountToken{N: 3}, 30*time.Second)
		if err != nil {
			t.Fatalf("call %d after nested cancellation: %v", i, err)
		}
		if got := out.(*SumToken).Sum; got != 12 {
			t.Fatalf("call %d merged %d, want 12", i, got)
		}
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}

// TestCancelBeforeDispatch: an already-canceled context never starts the
// call.
func TestCancelBeforeDispatch(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	g := buildUppercase(t, app, "pre-canceled", "node0")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.CallFrom(ctx, app.MasterNode(), &StringToken{Str: "x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCancelAsyncDeliversError: canceling an async call delivers ctx's
// error on the result channel instead of leaving the receiver parked.
func TestCancelAsyncDeliversError(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 2}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	defer close(hold)
	g := buildCancelGraph(t, app, "cancel-async", &blocking, hold)

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := g.CallAsync(ctx, &CountToken{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitStalled(t, app, 1)
	cancel()
	select {
	case res := <-ch:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("async result %v, want context.Canceled", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async channel never delivered the cancellation")
	}
	blocking.Store(false)
	if err := app.Err(); err != nil {
		t.Fatalf("application failed after async cancellation: %v", err)
	}
}

// TestTimeoutCancels: a synchronous call whose deadline expires cancels the
// call (deregistering it) rather than merely abandoning the wait — the
// waiting caller is the call's context watcher; the late result is dropped
// and the graph remains fully usable.
func TestTimeoutCancels(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 2}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	g := buildCancelGraph(t, app, "timeout", &blocking, hold)

	_, err := callWithin(g, app.MasterNode(), &CountToken{N: 8}, 30*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want a deadline error", err)
	}
	// The abandoned call drains while the next one runs; its late result
	// must be discarded quietly.
	blocking.Store(false)
	close(hold)

	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 3}, 30*time.Second)
	if err != nil {
		t.Fatalf("call after an expired call: %v", err)
	}
	if got := out.(*SumToken).Sum; got != 3 {
		t.Fatalf("merged %d tokens, want 3", got)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}
