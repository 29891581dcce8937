package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// simPair is two SimNodes on a fresh network; b's handler feeds got.
func simPair(t *testing.T) (*simnet.Network, *SimNode, *SimNode, chan string) {
	t.Helper()
	net := simnet.New(simnet.Config{TimeScale: 1})
	t.Cleanup(net.Close)
	trs, err := SimNodes(net, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	a, b := trs[0].(*SimNode), trs[1].(*SimNode)
	got := make(chan string, 64)
	b.SetHandler(func(src string, payload []byte) { got <- src + ":" + string(payload) })
	return net, a, b, got
}

func expectFrames(t *testing.T, got <-chan string, want ...string) {
	t.Helper()
	for _, w := range want {
		select {
		case m := <-got:
			if m != w {
				t.Fatalf("got %q, want %q", m, w)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout waiting for %q", w)
		}
	}
	select {
	case m := <-got:
		t.Fatalf("extra frame %q", m)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestRetryAbsorbsInjectedBurst: a burst of injected send errors shorter
// than the budget is retried away inside Send, each retry counted.
func TestRetryAbsorbsInjectedBurst(t *testing.T) {
	net, a, _, got := simPair(t)
	net.FailNextSends("a", "b", 4)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send through a 4-error burst: %v", err)
	}
	if r := a.retries.Load(); r != 4 {
		t.Errorf("Retries = %d, want 4", r)
	}
	if n := net.InjectedSendErrors(); n != 4 {
		t.Errorf("InjectedSendErrors = %d, want 4", n)
	}
	expectFrames(t, got, "a:x")
}

// TestRetryPartitionHealedDelivers: frames sent across a partition that
// heals within the budget all arrive, once each and in send order.
func TestRetryPartitionHealedDelivers(t *testing.T) {
	net, a, _, got := simPair(t)
	net.Partition("a", "b")
	time.AfterFunc(40*time.Millisecond, func() { net.Heal("a", "b") })
	var want []string
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte(fmt.Sprint(i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		want = append(want, fmt.Sprintf("a:%d", i))
	}
	if a.retries.Load() == 0 {
		t.Error("no retry counted across the partition")
	}
	expectFrames(t, got, want...)
}

// TestRetryPartitionOutlivesBudget: a partition that does not heal is
// reported after about one budget — not at the first attempt, and not
// much past the budget.
func TestRetryPartitionOutlivesBudget(t *testing.T) {
	net, a, _, _ := simPair(t)
	net.Partition("a", "b")
	start := time.Now()
	err := a.Send("b", []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, simnet.ErrPartitioned) {
		t.Fatalf("Send = %v, want ErrPartitioned", err)
	}
	// The last pause that fits may end up to one capped step short of the
	// deadline.
	if lo, hi := SimRetryBudget-retryCap, SimRetryBudget+250*time.Millisecond; elapsed < lo || elapsed > hi {
		t.Errorf("Send failed after %v, want within [%v, %v]", elapsed, lo, hi)
	}
	if a.retries.Load() == 0 {
		t.Error("no retry counted")
	}
}

// TestRetryCrashedOrUnknownFailsAtOnce: a crashed or unknown destination
// is a permanent fault — Send returns at once and retries nothing.
func TestRetryCrashedOrUnknownFailsAtOnce(t *testing.T) {
	net, a, _, _ := simPair(t)
	net.Crash("b")
	for _, dst := range []string{"b", "ghost"} {
		start := time.Now()
		if err := a.Send(dst, []byte("x")); err == nil {
			t.Fatalf("Send to %s succeeded", dst)
		}
		// One attempt takes microseconds; the bound leaves room for a
		// loaded race detector.
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("Send to %s took %v, want an immediate failure", dst, elapsed)
		}
	}
	if r := a.retries.Load(); r != 0 {
		t.Errorf("Retries = %d, want 0", r)
	}
}

// TestRetryCloseStopsRetry: Close ends a retry in progress within one
// backoff step, and a later Send makes one attempt only.
func TestRetryCloseStopsRetry(t *testing.T) {
	net, a, _, _ := simPair(t)
	net.Partition("a", "b")
	errc := make(chan error, 1)
	go func() { errc <- a.Send("b", []byte("x")) }()
	time.Sleep(30 * time.Millisecond)
	closed := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, simnet.ErrPartitioned) {
			t.Fatalf("Send = %v, want ErrPartitioned", err)
		}
		if d := time.Since(closed); d > retryCap {
			t.Errorf("Send returned %v after Close, want within one step (%v)", d, retryCap)
		}
	case <-time.After(SimRetryBudget):
		t.Fatal("Close did not stop the retry")
	}
	before := a.retries.Load()
	if err := a.Send("b", []byte("y")); !errors.Is(err, simnet.ErrPartitioned) {
		t.Fatalf("Send after Close = %v, want ErrPartitioned", err)
	}
	if r := a.retries.Load(); r != before {
		t.Errorf("Send after Close retried %d times", r-before)
	}
}
