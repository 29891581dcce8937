package parlife

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/life"
)

// TestRemapWorkerMidRun live-migrates a band worker between nodes while the
// simulation steps, and requires the evolved world to be byte-identical to
// an undisturbed run: the worker's band state must travel with the thread
// and no border token may be lost, duplicated or reordered.
func TestRemapWorkerMidRun(t *testing.T) {
	remapMidRun(t, []string{"n1", "n2", "n1", "n2"}, []string{"n0", "n2", "n1"})
}

// TestRemapWorkerMidRunColocated is TestRemapWorkerMidRun on the benchmark's
// placement, two neighbouring bands per node: their border rows pass by
// pointer and alias the neighbour's band, so a migration's state capture and
// a neighbour's next-iteration write must never meet a border kept past its
// iteration.
func TestRemapWorkerMidRunColocated(t *testing.T) {
	remapMidRun(t, []string{"n0", "n0", "n1", "n1", "n2", "n2"}, []string{"n1", "n2", "n0"})
}

// remapMidRun steps a world on workers placed on workerNodes, alternating
// both graphs, once undisturbed and once while a goroutine bounces worker 1
// through targets, and requires both worlds to be byte-identical.
func remapMidRun(t *testing.T, workerNodes, targets []string) {
	const (
		width, height = 48, 40
		iters         = 12
	)
	workers := len(workerNodes)
	seed := life.NewWorld(width, height)
	rng := rand.New(rand.NewSource(42))
	for i := range seed.Cells {
		if rng.Intn(3) == 0 {
			seed.Cells[i] = 1
		}
	}

	run := func(t *testing.T, remap bool) *life.World {
		t.Helper()
		app, err := core.NewLocalApp(core.Config{Window: 16}, "n0", "n1", "n2")
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		sim, err := New(app, width, height, Options{
			Name:        fmt.Sprintf("remap-%v", remap),
			Workers:     workers,
			WorkerNodes: workerNodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := life.NewWorld(width, height)
		copy(w.Cells, seed.Cells)
		if err := sim.Load(w); err != nil {
			t.Fatal(err)
		}
		// In the remapping run, a concurrent goroutine bounces worker 1
		// through the targets (including the master, n0) while the
		// simulation steps — migrations race live border exchanges.
		stop := make(chan struct{})
		migrated := make(chan int, 1)
		if remap {
			go func() {
				moves := 0
				defer func() { migrated <- moves }()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					target := targets[i%len(targets)]
					if err := sim.BandCollection().RemapThread(context.Background(), 1, target); err != nil {
						t.Errorf("remap %d: %v", i, err)
						return
					}
					moves++
				}
			}()
		}
		for i := 0; i < iters; i++ {
			if err := sim.Step(i%2 == 0); err != nil { // alternate both graphs
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if remap {
			close(stop)
			if moves := <-migrated; moves == 0 {
				t.Fatal("no migrations performed")
			}
		}
		out, err := sim.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Err(); err != nil {
			t.Fatalf("app failed: %v", err)
		}
		if remap {
			if s := app.Stats(); s.MigrationsCompleted == 0 {
				t.Fatal("stats recorded no migrations")
			}
		}
		return out
	}

	want := run(t, false)
	got := run(t, true)
	if !bytes.Equal(want.Cells, got.Cells) {
		t.Fatal("world diverged across live worker migrations")
	}
}
