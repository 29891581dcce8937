package flowctl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWindowTryAcquireExhaustion(t *testing.T) {
	g := Window{N: 3}.NewGate()
	for i := 0; i < 3; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d refused below the window", i)
		}
	}
	if g.TryAcquire() {
		t.Fatal("slot granted beyond the window")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

func TestWindowAcquireBlocksUntilRelease(t *testing.T) {
	g := Window{N: 1}.NewGate()
	if !g.TryAcquire() {
		t.Fatal("first slot refused")
	}
	stallSeen := make(chan struct{})
	acquired := make(chan bool)
	go func() {
		stalled, err := g.Acquire(nil, func() { close(stallSeen) }, nil)
		if err != nil {
			t.Error(err)
		}
		acquired <- stalled
	}()
	select {
	case <-stallSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("onStall was not invoked on an exhausted window")
	}
	select {
	case <-acquired:
		t.Fatal("Acquire returned before a slot was released")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release() // the ack-driven release unblocks the poster
	select {
	case stalled := <-acquired:
		if !stalled {
			t.Fatal("blocked Acquire did not report stalling")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire still blocked after Release")
	}
}

func TestWindowOnStallInvokedOnce(t *testing.T) {
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	stalls := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := g.Acquire(nil, func() { stalls++ }, nil); err != nil {
			t.Error(err)
		}
	}()
	// Several wake-ups without room must not re-invoke onStall.
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		g.Wake()
	}
	g.Release()
	<-done
	if stalls != 1 {
		t.Fatalf("onStall invoked %d times, want 1", stalls)
	}
}

func TestWindowAcquireAbortsOnFailure(t *testing.T) {
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	boom := errors.New("boom")
	var mu sync.Mutex
	var failure error
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Acquire(nil, nil, func() error {
			mu.Lock()
			defer mu.Unlock()
			return failure
		})
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	failure = boom
	mu.Unlock()
	g.Wake()
	select {
	case err := <-errCh:
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted Acquire did not return")
	}
	// The failed acquisition must not have consumed the slot freed later.
	g.Release()
	if !g.Quiescent() {
		t.Fatal("gate not quiescent after release")
	}
}

func TestWindowQuiescent(t *testing.T) {
	g := Window{N: 2}.NewGate()
	if !g.Quiescent() {
		t.Fatal("fresh gate not quiescent")
	}
	g.TryAcquire()
	g.TryAcquire()
	if g.Quiescent() {
		t.Fatal("gate with tokens in flight reported quiescent")
	}
	g.Release()
	g.Release()
	if !g.Quiescent() {
		t.Fatal("fully acknowledged gate not quiescent")
	}
	g.Release() // extra release clamps at zero
	if !g.Quiescent() {
		t.Fatal("clamped gate not quiescent")
	}
}

func TestWindowDefaultSize(t *testing.T) {
	// N <= 0 selects DefaultWindow, through NewGate and through Init of a
	// gate held by value alike.
	var held Gate
	held.Init(-1)
	for name, g := range map[string]*Gate{"NewGate": Window{}.NewGate(), "Init": &held} {
		for i := 0; i < DefaultWindow; i++ {
			if !g.TryAcquire() {
				t.Fatalf("%s: slot %d refused below the default window", name, i)
			}
		}
		if g.TryAcquire() {
			t.Fatalf("%s: slot granted beyond the default window", name)
		}
	}
}

func TestCredits(t *testing.T) {
	ct := NewCredits(2)
	ct.Charge(3) // beyond the presized width: grows
	ct.Charge(3)
	ct.Charge(0)
	if ct.Outstanding(3) != 2 || ct.Outstanding(0) != 1 || ct.Outstanding(9) != 0 {
		t.Fatalf("outstanding: %d %d %d", ct.Outstanding(3), ct.Outstanding(0), ct.Outstanding(9))
	}
	ct.Release(3)
	if ct.Outstanding(3) != 1 {
		t.Fatal("release failed")
	}
	ct.Release(9)  // out of range: no-op
	ct.Release(-1) // negative: no-op
	ct.Release(0)
	ct.Release(0) // underflow clamped at zero
	if ct.Outstanding(0) != 0 {
		t.Fatal("underflow not clamped")
	}
}

func TestCreditsExhaustionDrivesChoice(t *testing.T) {
	// The load-balancing pattern: always pick the least-charged thread.
	ct := NewCredits(3)
	pick := func() int {
		best, bestOut := 0, int(^uint(0)>>1)
		for i := 0; i < 3; i++ {
			if out := ct.Outstanding(i); out < bestOut {
				best, bestOut = i, out
			}
		}
		return best
	}
	counts := make([]int, 3)
	for i := 0; i < 30; i++ {
		w := pick()
		ct.Charge(w)
		counts[w]++
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("thread %d charged %d times, want 10 (distribution %v)", i, c, counts)
		}
	}
	// Acks release credits and re-expose the thread.
	for i := 0; i < 10; i++ {
		ct.Release(1)
	}
	if w := pick(); w != 1 {
		t.Fatalf("fully acknowledged thread not preferred, picked %d", w)
	}
}

func TestWindowAcquireCanceled(t *testing.T) {
	// A blocked Acquire must wake and abort with ctx.Err() when the caller's
	// context is canceled — no Release ever arrives in this test.
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	stallSeen := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, func() { close(stallSeen) }, nil)
		errCh <- err
	}()
	select {
	case <-stallSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not stall on the exhausted window")
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Acquire did not return")
	}
	// The canceled acquisition must not have consumed a slot.
	g.Release()
	if !g.Quiescent() {
		t.Fatal("gate not quiescent after the canceled acquire")
	}
}

func TestWindowAcquireCanceledBeforeWait(t *testing.T) {
	// An already-canceled context aborts without stalling at all.
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stalled, err := g.Acquire(ctx, func() { t.Error("onStall invoked for a pre-canceled acquire") }, nil)
	if stalled {
		t.Error("pre-canceled acquire reported a stall")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWindowAcquireFailedBeforeWait(t *testing.T) {
	// A poster reaching an exhausted window after the application already
	// failed must return the failure immediately instead of parking (the
	// abort broadcast has already happened, no Release will come).
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		stalled, err := g.Acquire(nil, func() { t.Error("onStall invoked for a pre-failed acquire") },
			func() error { return boom })
		if stalled {
			t.Error("pre-failed acquire reported a stall")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire parked despite a pre-existing failure")
	}
}

func TestDeadlineTryAcquireExhaustion(t *testing.T) {
	// A call's deadline bounds the wait on an exhausted window: once
	// TryAcquire refuses, Acquire stalls and expires with DeadlineExceeded
	// without taking a slot, and the window is reusable after a Release.
	g := Window{N: 2}.NewGate()
	for i := 0; i < 2; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d refused below the window", i)
		}
	}
	if g.TryAcquire() {
		t.Fatal("slot granted beyond the window")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		stalled, err := g.Acquire(ctx, nil, nil)
		if !stalled {
			t.Error("expired acquire did not report a stall")
		}
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire outlived its deadline")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released slot not reusable after an expired acquire")
	}
	if g.TryAcquire() {
		t.Fatal("expired acquire left a slot taken beyond the window")
	}
}

func TestDeadlineAcquireFailedBeforeWait(t *testing.T) {
	// A deadline already past aborts without stalling; an application
	// failure is reported ahead of the expired deadline. Neither consumes
	// a slot.
	g := Window{N: 1}.NewGate()
	g.TryAcquire()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	noStall := func() { t.Error("onStall invoked for an acquire past its deadline") }
	stalled, err := g.Acquire(ctx, noStall, nil)
	if stalled {
		t.Error("acquire past its deadline reported a stall")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	boom := errors.New("boom")
	if _, err := g.Acquire(ctx, noStall, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom ahead of the expired deadline", err)
	}
	g.Release()
	if !g.Quiescent() {
		t.Fatal("aborted acquisitions consumed a slot")
	}
}
