package parlife

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/life"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestFailoverWorkerCrashByteIdentical kills a worker node abruptly
// (simnet power-failure semantics: queued NIC messages are lost) in the
// middle of an evolution and requires the final world to be byte-identical
// to an undisturbed run, with zero failed calls: the dead node's band
// workers are restored from their newest checkpoints on the survivors and
// the in-flight border/compute tokens are replayed with duplicates
// suppressed — the fault-tolerance layer's exactly-once contract, end to
// end through the paper's flagship application.
func TestFailoverWorkerCrashByteIdentical(t *testing.T) {
	const (
		width, height = 48, 40
		workers       = 4
		iters         = 10
	)
	seed := life.NewWorld(width, height)
	rng := rand.New(rand.NewSource(1234))
	for i := range seed.Cells {
		if rng.Intn(3) == 0 {
			seed.Cells[i] = 1
		}
	}

	run := func(t *testing.T, crash bool) (*life.World, *core.Stats) {
		t.Helper()
		net := simnet.New(simnet.Config{Latency: 100 * time.Microsecond, PerMessage: 10 * time.Microsecond})
		defer net.Close()
		trs, err := transport.SimNodes(net, "n0", "n1", "n2")
		if err != nil {
			t.Fatal(err)
		}
		app, err := core.NewAppOn(core.Config{Window: 16, Checkpoint: 2 * time.Millisecond}, trs...)
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		sim, err := New(app, width, height, Options{
			Name:        fmt.Sprintf("ftlife-%v", crash),
			Workers:     workers,
			WorkerNodes: []string{"n1", "n2", "n1", "n2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := life.NewWorld(width, height)
		copy(w.Cells, seed.Cells)
		if err := sim.Load(w); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			if crash && i == iters/2 {
				// Give the checkpointer a beat, then pull the plug on n2
				// (workers 1 and 3) mid-evolution.
				time.Sleep(6 * time.Millisecond)
				if !net.Crash("n2") {
					t.Fatal("crash failed")
				}
			}
			if err := sim.Step(true); err != nil {
				t.Fatalf("step %d: %v", i+1, err)
			}
		}
		out, err := sim.Gather()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if err := app.Err(); err != nil {
			t.Fatalf("application failed: %v", err)
		}
		return out, app.Stats()
	}

	clean, _ := run(t, false)
	crashed, stats := run(t, true)

	if !bytes.Equal(clean.Cells, crashed.Cells) {
		t.Fatalf("world after crash-recovery differs from undisturbed run")
	}
	if stats.FailoversCompleted != 1 {
		t.Errorf("FailoversCompleted = %d, want 1", stats.FailoversCompleted)
	}
	if stats.CheckpointsTaken == 0 {
		t.Error("no checkpoints were taken before the crash")
	}
}

// TestFailoverThenRemap checks that the two placement protocols compose:
// after a crash-recovery, a live remap of a recovered worker still
// produces a byte-identical world.
func TestFailoverThenRemap(t *testing.T) {
	const (
		width, height = 36, 30
		workers       = 3
		iters         = 8
	)
	seed := life.NewWorld(width, height)
	rng := rand.New(rand.NewSource(99))
	for i := range seed.Cells {
		if rng.Intn(4) == 0 {
			seed.Cells[i] = 1
		}
	}

	run := func(t *testing.T, disturb bool) *life.World {
		t.Helper()
		net := simnet.New(simnet.Config{Latency: 100 * time.Microsecond, PerMessage: 10 * time.Microsecond})
		defer net.Close()
		trs, err := transport.SimNodes(net, "n0", "n1", "n2")
		if err != nil {
			t.Fatal(err)
		}
		app, err := core.NewAppOn(core.Config{Window: 16, Checkpoint: 3 * time.Millisecond}, trs...)
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		sim, err := New(app, width, height, Options{
			Name:        fmt.Sprintf("ftremap-%v", disturb),
			Workers:     workers,
			WorkerNodes: []string{"n1", "n2", "n1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := life.NewWorld(width, height)
		copy(w.Cells, seed.Cells)
		if err := sim.Load(w); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			if disturb && i == 2 {
				net.Crash("n2") // worker 1 fails over
			}
			if disturb && i == 5 {
				// Live-migrate a recovered worker onward: the failover's
				// epoch flip must compose with the remap fences.
				if err := sim.BandCollection().RemapThread(nil, 1, "n0"); err != nil {
					t.Fatalf("remap after failover: %v", err)
				}
			}
			if err := sim.Step(true); err != nil {
				t.Fatalf("step %d: %v", i+1, err)
			}
		}
		out, err := sim.Gather()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if err := app.Err(); err != nil {
			t.Fatalf("application failed: %v", err)
		}
		return out
	}

	clean := run(t, false)
	disturbed := run(t, true)
	if !bytes.Equal(clean.Cells, disturbed.Cells) {
		t.Fatal("world after crash+remap differs from undisturbed run")
	}
}
