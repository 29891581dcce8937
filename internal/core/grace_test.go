package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// TestSuspectGraceAbsorbsTransientFaults injects short bursts of send
// errors on the busy links of a checkpointed pipeline: every burst must be
// absorbed by the transport's own retries before the failure detector
// hears of it — zero failovers, zero failed calls, exactly-once worker
// state — and the retries must show up in the SimNodes' counts.
func TestSuspectGraceAbsorbsTransientFaults(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	const rounds, perCall = 20, 16
	wantTotal := int64(0)
	for r := 0; r < rounds; r++ {
		if r%4 == 1 {
			// Burst on the split's outbound link and a worker's return
			// link — the hottest directions of this graph.
			h.net.FailNextSends("m", "w1", 3)
			h.net.FailNextSends("w2", "m", 2)
		}
		base := r * 1000
		h.call(t, base, perCall)
		for i := 0; i < perCall; i++ {
			wantTotal += int64(base + i)
		}
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}

	out, err := h.probe.Call(context.Background(), &FTOrder{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	got := out.(*FTDone)
	if got.N != rounds*perCall || got.Sum != wantTotal {
		t.Errorf("workers saw N=%d Sum=%d, want N=%d Sum=%d (exactly-once violated)",
			got.N, got.Sum, rounds*perCall, wantTotal)
	}

	s := h.app.Stats()
	if s.FailoversCompleted != 0 {
		t.Errorf("transient faults escalated into %d failovers", s.FailoversCompleted)
	}
	retries := transport.SimRetries(h.trs)
	if retries == 0 {
		t.Error("no send retries recorded — the bursts were not absorbed by the transport")
	}
	if injected := h.net.InjectedSendErrors(); injected == 0 {
		t.Error("no injected errors were consumed — the bursts landed on idle links")
	}
	t.Logf("absorbed %d injected errors with %d retries", h.net.InjectedSendErrors(), retries)
}

// TestSuspectGraceCrashStillFailsOver: the transport's retries must not
// hide a real crash — a send to the crashed node fails at once, and the
// node fails over exactly once, with every call still completing.
func TestSuspectGraceCrashStillFailsOver(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	const rounds, perCall = 16, 12
	wantTotal := int64(0)
	for r := 0; r < rounds; r++ {
		base := r * 1000
		h.call(t, base, perCall)
		for i := 0; i < perCall; i++ {
			wantTotal += int64(base + i)
		}
		if r == rounds/2 {
			time.Sleep(3 * cfg.Checkpoint)
			if !h.net.Crash("w2") {
				t.Fatal("crash failed")
			}
		}
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}

	out, err := h.probe.Call(context.Background(), &FTOrder{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	got := out.(*FTDone)
	if got.N != rounds*perCall || got.Sum != wantTotal {
		t.Errorf("workers saw N=%d Sum=%d, want N=%d Sum=%d (exactly-once violated)",
			got.N, got.Sum, rounds*perCall, wantTotal)
	}
	s := h.app.Stats()
	if s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
	for i := 0; i < h.workers.ThreadCount(); i++ {
		node, err := h.workers.NodeOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if node == "w2" {
			t.Errorf("thread %d still placed on the dead node", i)
		}
	}
}

// TestRetryAbsorbsSendErrorsWithoutFT: with fault tolerance off a send
// error is the application's failure, so a burst of transient ones must
// never reach the engine — the transport retries them and every call
// completes.
func TestRetryAbsorbsSendErrorsWithoutFT(t *testing.T) {
	h := newFTHarness(t, core.Config{Window: 4}, "w1*2 w2*2", "m", "w1", "w2")
	for r := 0; r < 8; r++ {
		if r%2 == 1 {
			h.net.FailNextSends("m", "w1", 3)
			h.net.FailNextSends("w2", "m", 2)
		}
		h.call(t, r*100, 8)
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	if h.net.InjectedSendErrors() == 0 || transport.SimRetries(h.trs) == 0 {
		t.Errorf("%d injected errors, %d retries: the bursts were not exercised",
			h.net.InjectedSendErrors(), transport.SimRetries(h.trs))
	}
}
