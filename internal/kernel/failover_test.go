package kernel

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
)

// crashKernel kills a kernel process the hard way: the TCP endpoint closes
// without unregistering from the name server — exactly what a kill -9
// looks like to the rest of the cluster.
func crashKernel(k *Kernel) {
	k.mu.Lock()
	k.closed = true
	if k.hbStop != nil {
		close(k.hbStop)
		k.hbStop = nil
	}
	k.mu.Unlock()
	_ = k.node.Close()
}

// TestHeartbeatDetectsDeadKernel kills a kernel and checks the prober
// declares it dead and notifies the third kernel via the death broadcast.
func TestHeartbeatDetectsDeadKernel(t *testing.T) {
	ns := startNS(t)
	ka := startKernel(t, ns, "hb-a")
	kb := startKernel(t, ns, "hb-b")
	kc := startKernel(t, ns, "hb-c")

	deadA := make(chan string, 4)
	ka.OnFailover(func(peer string) { deadA <- peer })
	deadC := make(chan string, 4)
	kc.OnFailover(func(peer string) { deadC <- peer })

	ka.StartHeartbeat(25*time.Millisecond, 3)
	// Let a few rounds of pongs establish liveness, then kill b.
	time.Sleep(100 * time.Millisecond)
	crashKernel(kb)

	waitPeer := func(ch chan string, who string) {
		t.Helper()
		select {
		case peer := <-ch:
			if peer != "hb-b" {
				t.Fatalf("%s: OnFailover(%q), want hb-b", who, peer)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no failover notification", who)
		}
	}
	waitPeer(deadA, "prober")
	waitPeer(deadC, "broadcast receiver")

	// The healthy kernel must not be declared dead as a side effect.
	select {
	case peer := <-deadA:
		t.Fatalf("spurious death of %q", peer)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestHeartbeatLateRoundsAccuseNoLivePeer: a prober whose rounds run late —
// every other one by eight intervals, as when its goroutine is starved —
// declares no peer dead that answers its next ping.
func TestHeartbeatLateRoundsAccuseNoLivePeer(t *testing.T) {
	ns := startNS(t)
	ka := startKernel(t, ns, "late-a")
	startKernel(t, ns, "late-b")
	dead := make(chan string, 4)
	ka.OnFailover(func(peer string) { dead <- peer })

	const interval = 25 * time.Millisecond
	var rounds atomic.Int32
	ka.roundHook = func() {
		if rounds.Add(1)%2 == 0 {
			time.Sleep(8 * interval)
		}
	}
	ka.StartHeartbeat(interval, 3)
	for rounds.Load() < 10 {
		select {
		case peer := <-dead:
			t.Fatalf("round %d: a late round declared %q dead", rounds.Load(), peer)
		case <-time.After(interval):
		}
	}
	ka.mu.Lock()
	defer ka.mu.Unlock()
	if p := ka.probes["late-b"]; p == nil || p.missed != 0 {
		t.Fatalf("late-b's probe %+v: want one with no miss counted", p)
	}
}

type fkItem struct {
	Worker int
	Value  int
}

type fkDone struct {
	Sum int64
	N   int
}

type fkState struct {
	Count int
	Sum   int64
}

var (
	_ = serial.MustRegister[fkItem]()
	_ = serial.MustRegister[fkDone]()
	_ = serial.MustRegister[fkState]()
)

// TestKernelFailoverOverTCP runs a fault-tolerant engine application over
// three real TCP kernels, kills one kernel process, and checks that the
// heartbeat-driven failover restores its stateful threads on the
// survivors and later calls still complete — the ISSUE's "recovers after
// a killed kernel process" scenario over real sockets.
func TestKernelFailoverOverTCP(t *testing.T) {
	ns := startNS(t)
	k0 := startKernel(t, ns, "fk0")
	k1 := startKernel(t, ns, "fk1")
	k2 := startKernel(t, ns, "fk2")

	app := core.NewApp(core.Config{Window: 4, Checkpoint: 5 * time.Millisecond})
	defer app.Close()
	for _, k := range []*Kernel{k0, k1, k2} {
		if _, err := app.AttachTransport(k.Transport("ftapp")); err != nil {
			t.Fatal(err)
		}
	}
	// The master kernel's heartbeat feeds the engine's recovery.
	k0.OnFailover(func(peer string) { _ = app.FailNode(peer) })
	k0.StartHeartbeat(25*time.Millisecond, 3)

	main := core.MustCollection[struct{}](app, "fk-main")
	if err := main.Map("fk0"); err != nil {
		t.Fatal(err)
	}
	workers := core.MustCollection[fkState](app, "fk-workers")
	if err := workers.Map("fk1*2 fk2*2"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*fkItem, *fkItem]("fk-split",
		func(c *core.Ctx, in *fkItem, post func(*fkItem)) {
			for i := 0; i < in.Worker; i++ {
				post(&fkItem{Worker: i % workers.ThreadCount(), Value: in.Value + i})
			}
		})
	work := core.Leaf[*fkItem, *fkItem]("fk-work",
		func(c *core.Ctx, in *fkItem) *fkItem {
			st := core.StateOf[fkState](c)
			st.Count++
			st.Sum += int64(in.Value)
			return in
		})
	merge := core.Merge[*fkItem, *fkDone]("fk-merge",
		func(c *core.Ctx, first *fkItem, next func() (*fkItem, bool)) *fkDone {
			out := &fkDone{}
			for in, ok := first, true; ok; in, ok = next() {
				out.Sum += int64(in.Value)
				out.N++
			}
			return out
		})
	g, err := app.NewFlowgraph("fk-graph", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(work, workers, core.ByKey[*fkItem]("fk-route", func(in *fkItem) int { return in.Worker })),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	call := func(base, n int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := g.Call(ctx, &fkItem{Worker: n, Value: base})
		if err != nil {
			return err
		}
		want := int64(0)
		for i := 0; i < n; i++ {
			want += int64(base + i)
		}
		if d := out.(*fkDone); d.N != n || d.Sum != want {
			return fmt.Errorf("base %d: got N=%d Sum=%d, want N=%d Sum=%d", base, d.N, d.Sum, n, want)
		}
		return nil
	}

	for r := 0; r < 5; r++ {
		if err := call(r*100, 8); err != nil {
			t.Fatal(err)
		}
	}
	crashKernel(k2)
	// Calls keep running through detection and recovery: tokens to the
	// dead kernel are retained and replayed onto the survivors.
	for r := 5; r < 15; r++ {
		if err := call(r*100, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	for i := 0; i < workers.ThreadCount(); i++ {
		node, err := workers.NodeOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if node == "fk2" {
			t.Errorf("thread %d still placed on the killed kernel", i)
		}
	}
	if s := app.Stats(); s.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}
}
