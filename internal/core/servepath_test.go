package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCancelStormDrainsRegistry is the sharded registry under the PR 3
// cancellation contract at scale: thousands of concurrent calls with the
// workers parked, half of them canceled mid-flight, then the workers
// released. Every call must settle in exactly one way, every window slot
// and credit must come back, every registry shard must drain to empty, and
// a follow-up call through the same graph must complete.
func TestCancelStormDrainsRegistry(t *testing.T) {
	calls := 10_000
	if testing.Short() {
		calls = 1_000
	}
	app := newLocalApp(t, core.Config{Window: 8}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	g := buildCancelGraph(t, app, "storm", &blocking, hold)

	type pending struct {
		ch     <-chan core.CallResult
		cancel context.CancelFunc
	}
	inflight := make([]pending, calls)
	for i := range inflight {
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := g.CallAsyncFrom(ctx, app.MasterNode(), &CountToken{N: 1})
		if err != nil {
			t.Fatalf("call %d not admitted: %v", i, err)
		}
		inflight[i] = pending{ch: ch, cancel: cancel}
	}
	if got := app.PendingCalls(); got != calls {
		t.Fatalf("PendingCalls = %d with %d calls in flight", got, calls)
	}
	// Cancel every odd call while its work is parked mid-flight.
	for i := 1; i < calls; i += 2 {
		inflight[i].cancel()
	}
	blocking.Store(false)
	close(hold)

	deadline := time.After(4 * time.Minute)
	for i, p := range inflight {
		select {
		case res := <-p.ch:
			switch {
			case res.Err == nil:
				// Completed — legal for canceled calls too when the result
				// won the race with the cancellation.
			case i%2 == 1 && errors.Is(res.Err, context.Canceled):
			default:
				t.Fatalf("call %d settled with %v", i, res.Err)
			}
		case <-deadline:
			t.Fatalf("call %d never settled: storm hung", i)
		}
		p.cancel()
	}
	if got := app.PendingCalls(); got != 0 {
		t.Fatalf("%d calls still pending after every result was delivered", got)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed during the storm: %v", err)
	}
	// The storm must have released every window slot and credit: a fresh
	// call through the same split group machinery completes.
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 5}, 30*time.Second)
	if err != nil {
		t.Fatalf("follow-up call after the storm: %v", err)
	}
	if got := out.(*SumToken).Sum; got != 5 {
		t.Fatalf("follow-up call merged %d tokens, want 5", got)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed after the follow-up call: %v", err)
	}
}

// TestAdmissionBudgetSheds exercises MaxInFlightCalls end to end: the
// budget admits exactly its size, the next call sheds with ErrOverload
// without posting anything, and once the admitted calls settle the budget
// is whole again. Stats attribute every outcome.
func TestAdmissionBudgetSheds(t *testing.T) {
	app := newLocalApp(t, core.Config{MaxInFlightCalls: 4}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	g := buildCancelGraph(t, app, "budget", &blocking, hold)

	chans := make([]<-chan core.CallResult, 4)
	for i := range chans {
		ch, err := g.CallAsyncFrom(context.Background(), app.MasterNode(), &CountToken{N: 1})
		if err != nil {
			t.Fatalf("call %d within the budget refused: %v", i, err)
		}
		chans[i] = ch
	}
	if _, err := g.CallFrom(context.Background(), app.MasterNode(), &CountToken{N: 1}); !errors.Is(err, core.ErrOverload) {
		t.Fatalf("call beyond the budget returned %v, want ErrOverload", err)
	}
	if got := app.PendingCalls(); got != 4 {
		t.Fatalf("PendingCalls = %d, want 4 (the shed call must not count)", got)
	}

	blocking.Store(false)
	close(hold)
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("admitted call %d failed: %v", i, res.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("admitted call %d never settled", i)
		}
	}
	if got := app.PendingCalls(); got != 0 {
		t.Fatalf("PendingCalls = %d after the drain, want 0", got)
	}
	// The budget is whole again: a fresh synchronous call is admitted.
	if _, err := callWithin(g, app.MasterNode(), &CountToken{N: 1}, 30*time.Second); err != nil {
		t.Fatalf("call after the drain: %v", err)
	}

	s := app.Stats()
	if s.CallsAdmitted != 5 {
		t.Fatalf("CallsAdmitted = %d, want 5 (the 4 held calls and the follow-up; the shed call was never admitted)", s.CallsAdmitted)
	}
	if s.CallsRejected != 1 {
		t.Fatalf("CallsRejected = %d, want 1", s.CallsRejected)
	}
	if s.CallsExpired != 0 {
		t.Fatalf("CallsExpired = %d, want 0", s.CallsExpired)
	}
}

// TestAdmissionDeadlineExpiryCounted: a call whose context deadline fires
// mid-flight settles with the deadline error, releases its budget slot, and
// is attributed to CallsExpired (not CallsRejected).
func TestAdmissionDeadlineExpiryCounted(t *testing.T) {
	app := newLocalApp(t, core.Config{MaxInFlightCalls: 2}, "node0", "node1")
	var blocking atomic.Bool
	blocking.Store(true)
	hold := make(chan struct{})
	g := buildCancelGraph(t, app, "expiry", &blocking, hold)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := g.CallFrom(ctx, app.MasterNode(), &CountToken{N: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked call returned %v, want DeadlineExceeded", err)
	}
	blocking.Store(false)
	close(hold)

	// The expired call must have released its slot and left the registry.
	if _, err := callWithin(g, app.MasterNode(), &CountToken{N: 1}, 30*time.Second); err != nil {
		t.Fatalf("call after the expiry: %v", err)
	}
	if got := app.PendingCalls(); got != 0 {
		t.Fatalf("PendingCalls = %d, want 0", got)
	}
	s := app.Stats()
	if s.CallsExpired != 1 {
		t.Fatalf("CallsExpired = %d, want 1", s.CallsExpired)
	}
	if s.CallsAdmitted != 2 {
		t.Fatalf("CallsAdmitted = %d, want 2 (the expired call and the follow-up)", s.CallsAdmitted)
	}
	if s.CallsRejected != 0 {
		t.Fatalf("CallsRejected = %d, want 0", s.CallsRejected)
	}
}
