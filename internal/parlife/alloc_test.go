package parlife

import (
	"runtime"
	"testing"

	"repro/internal/life"
	"repro/internal/race"
)

// TestStepAllocatesNoBorderCopies pins that border rows travel without
// copies: a border read hands out the band's own row and the receiver keeps
// that slice, so an iteration allocates no row-sized object per border. Six
// workers on one node exchange twelve 4 KiB borders per step; with a copy
// per border a step allocated 54.4 KB (improved graph) and 54.8 KB (simple
// graph), without them 4.9 KB and 5.7 KB. The bound of two rows per step
// sits far from both. Under the race detector, whose bookkeeping and dropped
// pool Puts allocate, the readings are 58.4 / 59.3 KB with copies and 9.2 to
// 10.3 KB without, so the bound there is four rows.
func TestStepAllocatesNoBorderCopies(t *testing.T) {
	const (
		width, height = 4096, 48
		workers       = 6
		warm, steps   = 10, 40
	)
	budget := 2.0 * width
	if race.Enabled {
		budget = 4.0 * width
	}
	for _, improved := range []bool{true, false} {
		name := "simple"
		if improved {
			name = "improved"
		}
		t.Run(name, func(t *testing.T) {
			app := newApp(t, 1)
			sim, err := New(app, width, height, Options{Name: "alloc-" + name, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Load(life.RandomWorld(width, height, 0.35, 7)); err != nil {
				t.Fatal(err)
			}
			if err := sim.StepN(warm, improved); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := sim.StepN(steps, improved); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
			t.Logf("%.0f B allocated per step", perStep)
			if perStep > budget {
				t.Fatalf("a step allocates %.0f B, budget %.0f B: are border rows copied again?", perStep, budget)
			}
		})
	}
}
