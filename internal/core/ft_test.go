package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Tokens and state of the fault-tolerance tests.

type FTOrder struct {
	Base, N int
}

type FTItem struct {
	Worker int
	Value  int
}

type FTDone struct {
	Sum int64
	N   int
}

type FTProbe struct{ Worker int }

type FTWorkerState struct {
	Count int
	Sum   int64
}

var (
	_ = serial.MustRegister[FTOrder]()
	_ = serial.MustRegister[FTItem]()
	_ = serial.MustRegister[FTDone]()
	_ = serial.MustRegister[FTProbe]()
	_ = serial.MustRegister[FTWorkerState]()
)

// ftHarness is a split→stateful-leaf→merge pipeline over a simulated
// cluster, with collector stages on the master node (the fault-tolerance
// placement rule) and stateful workers spread over the other nodes.
type ftHarness struct {
	app     *core.App
	net     *simnet.Network
	trs     []transport.Transport
	workers *core.ThreadCollection
	work    *core.Flowgraph
	probe   *core.Flowgraph
}

func newFTHarness(t *testing.T, cfg core.Config, workerMap string, nodes ...string) *ftHarness {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: 100 * time.Microsecond, PerMessage: 10 * time.Microsecond})
	return newFTHarnessOn(t, net, cfg, workerMap, nodes...)
}

// newFTHarnessOn is newFTHarness over a given simulated network.
func newFTHarnessOn(t *testing.T, net *simnet.Network, cfg core.Config, workerMap string, nodes ...string) *ftHarness {
	t.Helper()
	trs, err := transport.SimNodes(net, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(cfg, trs...)
	if err != nil {
		t.Fatal(err)
	}
	// LIFO: the application must shut down before its fabric, or teardown
	// traffic reads as node deaths.
	t.Cleanup(net.Close)
	t.Cleanup(app.Close)

	main := core.MustCollection[struct{}](app, "ft-main")
	if err := main.MapNodes(nodes[0]); err != nil {
		t.Fatal(err)
	}
	workers := core.MustCollection[FTWorkerState](app, "ft-workers")
	if err := workers.Map(workerMap); err != nil {
		t.Fatal(err)
	}

	split := core.Split[*FTOrder, *FTItem]("ft-split",
		func(c *core.Ctx, in *FTOrder, post func(*FTItem)) {
			for i := 0; i < in.N; i++ {
				post(&FTItem{Worker: i % workers.ThreadCount(), Value: in.Base + i})
			}
		})
	work := core.Leaf[*FTItem, *FTItem]("ft-work",
		func(c *core.Ctx, in *FTItem) *FTItem {
			st := core.StateOf[FTWorkerState](c)
			st.Count++
			st.Sum += int64(in.Value)
			return in
		})
	merge := core.Merge[*FTItem, *FTDone]("ft-merge",
		func(c *core.Ctx, first *FTItem, next func() (*FTItem, bool)) *FTDone {
			out := &FTDone{}
			for in, ok := first, true; ok; in, ok = next() {
				out.Sum += int64(in.Value)
				out.N++
			}
			return out
		})
	h := &ftHarness{app: app, net: net, trs: trs, workers: workers}
	h.work, err = app.NewFlowgraph("ft-work-graph", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(work, workers, core.ByKey[*FTItem]("ft-to-worker", func(in *FTItem) int { return in.Worker })),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	// probe reads every worker's private state, so tests can assert the
	// exactly-once invariant after recovery.
	probeSplit := core.Split[*FTOrder, *FTProbe]("ft-probe-split",
		func(c *core.Ctx, in *FTOrder, post func(*FTProbe)) {
			for i := 0; i < workers.ThreadCount(); i++ {
				post(&FTProbe{Worker: i})
			}
		})
	probeLeaf := core.Leaf[*FTProbe, *FTItem]("ft-probe-read",
		func(c *core.Ctx, in *FTProbe) *FTItem {
			st := core.StateOf[FTWorkerState](c)
			return &FTItem{Worker: st.Count, Value: int(st.Sum)}
		})
	probeMerge := core.Merge[*FTItem, *FTDone]("ft-probe-merge",
		func(c *core.Ctx, first *FTItem, next func() (*FTItem, bool)) *FTDone {
			out := &FTDone{}
			for in, ok := first, true; ok; in, ok = next() {
				out.N += in.Worker
				out.Sum += int64(in.Value)
			}
			return out
		})
	h.probe, err = app.NewFlowgraph("ft-probe-graph", core.Path(
		core.NewNode(probeSplit, main, core.MainRoute()),
		core.NewNode(probeLeaf, workers, core.ByKey[*FTProbe]("ft-to-probe", func(in *FTProbe) int { return in.Worker })),
		core.NewNode(probeMerge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// expectSums runs one work call and checks its merge output.
func (h *ftHarness) call(t *testing.T, base, n int) {
	t.Helper()
	out, err := h.work.Call(context.Background(), &FTOrder{Base: base, N: n})
	if err != nil {
		t.Fatalf("call(base=%d): %v", base, err)
	}
	done := out.(*FTDone)
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(base + i)
	}
	if done.N != n || done.Sum != want {
		t.Fatalf("call(base=%d): got N=%d Sum=%d, want N=%d Sum=%d", base, done.N, done.Sum, n, want)
	}
}

// TestFailoverExactlyOnce crashes a worker node between calls and checks
// that every call completes and the per-worker state reflects each token
// exactly once, with the crashed node's threads restored from checkpoints.
func TestFailoverExactlyOnce(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	const rounds, perCall = 30, 16
	wantTotal := int64(0)
	for r := 0; r < rounds; r++ {
		base := r * 1000
		h.call(t, base, perCall)
		for i := 0; i < perCall; i++ {
			wantTotal += int64(base + i)
		}
		if r == rounds/2 {
			// Let a checkpoint land, then kill w2 abruptly.
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
	if got.N != rounds*perCall {
		t.Errorf("workers processed %d tokens, want %d (exactly-once violated)", got.N, rounds*perCall)
	}
	if got.Sum != wantTotal {
		t.Errorf("workers accumulated %d, want %d", got.Sum, wantTotal)
	}

	s := h.app.Stats()
	if s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
	if s.CheckpointsTaken == 0 {
		t.Error("no checkpoints were taken")
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

// TestFailoverMidCall crashes the worker node while calls are in flight:
// the calls must still complete (in-flight tokens replayed onto the
// survivors) and exactly-once must hold.
func TestFailoverMidCall(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	const rounds, perCall = 40, 12
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		h.net.Crash("w2")
	}()
	wantTotal := int64(0)
	for r := 0; r < rounds; r++ {
		base := r * 1000
		h.call(t, base, perCall)
		for i := 0; i < perCall; i++ {
			wantTotal += int64(base + i)
		}
	}
	wg.Wait()
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	out, err := h.probe.Call(context.Background(), &FTOrder{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	got := out.(*FTDone)
	if got.N != rounds*perCall {
		t.Errorf("workers processed %d tokens, want %d (exactly-once violated)", got.N, rounds*perCall)
	}
	if got.Sum != wantTotal {
		t.Errorf("workers accumulated %d, want %d", got.Sum, wantTotal)
	}
	if s := h.app.Stats(); s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
}

// TestFailNodeManual exercises the explicit detector entry point: FailNode
// recovers a healthy-but-unreachable node's threads and rejects the master.
func TestFailNodeManual(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 5 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	h.call(t, 0, 8)
	if err := h.app.FailNode("m"); err == nil {
		t.Fatal("failing the master must be rejected")
	}
	if err := h.app.FailNode("w1"); err != nil {
		t.Fatalf("FailNode(w1): %v", err)
	}
	// Idempotent: a second report folds into the first recovery.
	if err := h.app.FailNode("w1"); err != nil {
		t.Fatalf("second FailNode(w1): %v", err)
	}
	h.call(t, 5000, 8)
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	for i := 0; i < h.workers.ThreadCount(); i++ {
		node, err := h.workers.NodeOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if node == "w1" {
			t.Errorf("thread %d still placed on the failed node", i)
		}
	}
	if s := h.app.Stats(); s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
}

// TestFTDisabledUntouched confirms the layer stays inert without
// Config.Checkpoint: no checkpoints, no replay, and FailNode refuses.
func TestFTDisabledUntouched(t *testing.T) {
	h := newFTHarness(t, core.Config{Window: 4}, "w1*2 w2*2", "m", "w1", "w2")
	h.call(t, 0, 8)
	s := h.app.Stats()
	if s.CheckpointsTaken != 0 || s.TokensReplayed != 0 || s.FailoversCompleted != 0 {
		t.Errorf("fault-tolerance counters moved while disabled: %+v", s)
	}
	if err := h.app.FailNode("w1"); err == nil {
		t.Fatal("FailNode must require Config.Checkpoint")
	}
}

// TestFailoverWithoutCheckpointHistory crashes a worker before any
// checkpoint interval elapsed: recovery must rebuild the lost state by
// full replay of the retained logs.
func TestFailoverWithoutCheckpointHistory(t *testing.T) {
	// A very long interval: no checkpoint will be captured during the test.
	cfg := core.Config{Window: 4, Checkpoint: time.Hour}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	wantTotal := int64(0)
	const rounds, perCall = 10, 8
	for r := 0; r < rounds; r++ {
		base := r * 100
		h.call(t, base, perCall)
		for i := 0; i < perCall; i++ {
			wantTotal += int64(base + i)
		}
		if r == rounds/2 {
			h.net.Crash("w2")
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
		t.Errorf("workers processed N=%d Sum=%d, want N=%d Sum=%d", got.N, got.Sum, rounds*perCall, wantTotal)
	}
	s := h.app.Stats()
	if s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
	if s.CheckpointsTaken != 0 {
		t.Errorf("unexpected checkpoints: %d", s.CheckpointsTaken)
	}
	if s.TokensReplayed == 0 {
		t.Error("recovery without checkpoints must replay the full log")
	}
}

// TestOnRecoverCallback observes the failover re-placements.
func TestOnRecoverCallback(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 5 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1 w1 w2 w2", "m", "w1", "w2")

	var mu sync.Mutex
	moved := map[int]string{}
	h.workers.OnRecover(func(thread int, from, to string) {
		mu.Lock()
		defer mu.Unlock()
		if from != "w2" {
			t.Errorf("thread %d recovered from %q, want w2", thread, from)
		}
		moved[thread] = to
	})
	h.call(t, 0, 8)
	if err := h.app.FailNode("w2"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(moved) != 2 {
		t.Fatalf("OnRecover saw %d moves (%v), want 2", len(moved), moved)
	}
	for thread, to := range moved {
		if to == "w2" {
			t.Errorf("thread %d 'recovered' onto the dead node", thread)
		}
		if thread != 2 && thread != 3 {
			t.Errorf("unexpected thread %d recovered", thread)
		}
	}
}

// TestSendErrorSurfacesWithoutFT is the no-fault-tolerance contract: a
// transport send to a dead peer must surface as an engine-visible call and
// application error — never be dropped on the floor.
func TestSendErrorSurfacesWithoutFT(t *testing.T) {
	h := newFTHarness(t, core.Config{Window: 4}, "w1*2 w2*2", "m", "w1", "w2")
	h.call(t, 0, 8)
	h.net.Crash("w2")
	_, err := h.work.Call(context.Background(), &FTOrder{Base: 100, N: 8})
	if err == nil {
		t.Fatal("call through a dead node succeeded without fault tolerance")
	}
	if appErr := h.app.Err(); appErr == nil {
		t.Fatal("node death left no engine-visible application error")
	} else if !strings.Contains(appErr.Error(), "w2") && !strings.Contains(err.Error(), "w2") {
		t.Errorf("error does not name the dead peer: call=%v app=%v", err, appErr)
	}
}

// TestPartitionFeedsDetector cuts the master–worker link with fault
// tolerance on: the failed sends must feed the detector and recover the
// unreachable node's threads instead of failing the application.
func TestPartitionFeedsDetector(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 3 * time.Millisecond}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")
	h.call(t, 0, 8)
	h.net.Partition("m", "w2")
	for r := 1; r < 8; r++ {
		h.call(t, r*100, 8)
	}
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	if s := h.app.Stats(); s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
	for i := 0; i < h.workers.ThreadCount(); i++ {
		if node, _ := h.workers.NodeOf(i); node == "w2" {
			t.Errorf("thread %d still placed on the partitioned node", i)
		}
	}
}
