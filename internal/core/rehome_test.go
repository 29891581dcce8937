package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// A node death during a live remap: with fault tolerance on, the remap
// returns an error naming the death, the death fails over — the thread is
// re-placed from its checkpoint — and the application survives with every
// token executed exactly once. Without fault tolerance the application
// fails, as for any node death.

// ftTally is what a test's work calls contributed to the workers' state.
type ftTally struct {
	calls, n int
	sum      int64
}

const tallyPerCall = 8

func (tl *ftTally) call(t *testing.T, h *ftHarness) {
	t.Helper()
	base := tl.calls * 1000
	h.call(t, base, tallyPerCall)
	tl.record(base)
}

func (tl *ftTally) record(base int) {
	tl.calls++
	tl.n += tallyPerCall
	for i := 0; i < tallyPerCall; i++ {
		tl.sum += int64(base + i)
	}
}

// remapDeathHarness is the fault-tolerance harness with a spare node w3:
// ft-workers[0] lives on w1, four calls have run and a checkpoint has had
// time to land. latency is the simulated network's one-way latency.
func remapDeathHarness(t *testing.T, cfg core.Config, latency time.Duration) (*ftHarness, *ftTally) {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: latency, PerMessage: 10 * time.Microsecond})
	h := newFTHarnessOn(t, net, cfg, "w1*2 w2*2", "m", "w1", "w2", "w3")
	tl := &ftTally{}
	for i := 0; i < 4; i++ {
		tl.call(t, h)
	}
	time.Sleep(3 * cfg.Checkpoint)
	return h, tl
}

func remapCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// expectFailedOver checks what a remap cut short by the death of node dead
// must leave behind: an error naming the death, a live application, a
// completed next call, exactly one failover, no thread on the dead node and
// every token of tl in the workers' state exactly once.
func expectFailedOver(t *testing.T, h *ftHarness, tl *ftTally, remapErr error, dead string) {
	t.Helper()
	if remapErr == nil || !strings.Contains(remapErr.Error(), `"`+dead+`" died`) {
		t.Fatalf("remap across the death of %s returned %v, want an error naming the death", dead, remapErr)
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	tl.call(t, h)
	// The counter moves once the failover has seen its installs, which can
	// be just after the call that waited for them returned.
	for deadline := time.Now().Add(10 * time.Second); h.app.Stats().FailoversCompleted == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := h.app.Stats().FailoversCompleted; n != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", n)
	}
	out, err := h.probe.Call(context.Background(), &FTOrder{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := out.(*FTDone); got.N != tl.n || got.Sum != tl.sum {
		t.Errorf("workers hold N=%d Sum=%d, want N=%d Sum=%d (exactly-once violated)", got.N, got.Sum, tl.n, tl.sum)
	}
	for i, node := range h.workers.Placements() {
		if node == dead {
			t.Errorf("thread %d still placed on the dead node", i)
		}
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
}

// TestRemapOntoDeadNodeFailsOver remaps a thread onto a node that has
// crashed but was not yet known dead: the flip's fences and the state
// envelope fail toward it, and those failures must reach the failure
// detector instead of failing the application.
func TestRemapOntoDeadNodeFailsOver(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		h, tl := remapDeathHarness(t, core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}, 100*time.Microsecond)
		h.net.Crash("w3")
		err := h.workers.RemapThread(remapCtx(t), 0, "w3")
		expectFailedOver(t, h, tl, err, "w3")
	})
	t.Run("no fault tolerance", func(t *testing.T) {
		h, _ := remapDeathHarness(t, core.Config{Window: 4}, 100*time.Microsecond)
		h.net.Crash("w3")
		if err := h.workers.RemapThread(remapCtx(t), 0, "w3"); err == nil {
			t.Fatal("remap onto a dead node succeeded without fault tolerance")
		}
		if h.app.Err() == nil {
			t.Fatal("a node death without fault tolerance left the application running")
		}
	})
}

// remapDiesMidInstall remaps ft-workers[0] from w1 to w3 and, once the state
// envelope is on the wire (5 ms of simulated latency), crashes node victim
// under it and starts a call whose posts to the crashed node report the
// death. The call must complete once the death has failed over.
func remapDiesMidInstall(t *testing.T, victim string) {
	h, tl := remapDeathHarness(t, core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}, 5*time.Millisecond)
	base := tl.calls * 1000
	inflight := make(chan error, 1)
	var once sync.Once
	core.SetRehomeHook(h.app, func() {
		once.Do(func() {
			h.net.Crash(victim)
			go func() {
				_, err := h.work.Call(context.Background(), &FTOrder{Base: base, N: tallyPerCall})
				inflight <- err
			}()
		})
	})
	err := h.workers.RemapThread(remapCtx(t), 0, "w3")
	if callErr := <-inflight; callErr != nil {
		t.Fatalf("call across the death of %s: %v", victim, callErr)
	}
	tl.record(base)
	expectFailedOver(t, h, tl, err, victim)
}

// TestRemapTargetDiesMidInstall crashes the remap's target between the ship
// and the install: the await must give up on the dead target instead of
// holding the lock its failover needs.
func TestRemapTargetDiesMidInstall(t *testing.T) { remapDiesMidInstall(t, "w3") }

// TestRemapOldOwnerDiesMidInstall crashes the remap's old owner between the
// ship and the install, losing the only copy of the state: the thread goes
// back on the dead owner, whose failover re-places it from its checkpoint.
func TestRemapOldOwnerDiesMidInstall(t *testing.T) { remapDiesMidInstall(t, "w1") }
