// Life runs the paper's §5 Game of Life application on a simulated
// cluster: the world is band-distributed across worker nodes, iterations
// exchange borders and compute via DPS flow graphs, and the world-read
// parallel service (Figure 10) renders a viewport while the simulation
// evolves. The result is verified against the sequential reference
// stepper.
//
//	go run ./examples/life [-w 400 -h 300 -nodes 4 -iters 40 -improved]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/dps"
	"repro/internal/life"
	"repro/internal/parlife"
	"repro/internal/simnet"
)

func main() {
	width := flag.Int("w", 400, "world width")
	height := flag.Int("h", 300, "world height")
	nodes := flag.Int("nodes", 4, "virtual cluster nodes (= band workers)")
	iters := flag.Int("iters", 40, "iterations to run")
	improved := flag.Bool("improved", true, "use the improved (overlapping) flow graph of Figure 8")
	show := flag.Bool("show", true, "render a 40x20 viewport via the read service")
	flag.Parse()

	net := simnet.New(simnet.GigabitEthernet())
	defer net.Close()
	names := make([]string, *nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	app, err := dps.NewSim(net, dps.WithNodes(names...))
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()

	sim, err := parlife.New(app.Core(), *width, *height, parlife.Options{Workers: *nodes})
	if err != nil {
		log.Fatal(err)
	}
	world := life.RandomWorld(*width, *height, 0.3, 42)
	if err := sim.Load(world); err != nil {
		log.Fatal(err)
	}

	variant := "simple (Figure 7)"
	if *improved {
		variant = "improved (Figure 8)"
	}
	fmt.Printf("life %dx%d on %d nodes, %s graph, %d iterations\n",
		*width, *height, *nodes, variant, *iters)

	start := time.Now()
	for i := 0; i < *iters; i++ {
		if err := sim.Step(*improved); err != nil {
			log.Fatal(err)
		}
		if *show && i%10 == 9 {
			renderViewport(sim, i+1)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d iterations in %v (%.1f ms/iter)\n",
		*iters, elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1000/float64(*iters))

	// Verify the distributed run against the sequential reference.
	got, err := sim.Gather()
	if err != nil {
		log.Fatal(err)
	}
	want := world.StepN(*iters)
	if !got.Equal(want) {
		log.Fatalf("VERIFICATION FAILED: distributed world differs from reference")
	}
	fmt.Printf("verified against sequential reference: OK (population %d)\n", got.Population())
}

// renderViewport reads a block through the parallel world-read service —
// the same graph a separate visualization application would call.
func renderViewport(sim *parlife.Sim, iter int) {
	const vw, vh = 40, 20
	cells, err := sim.ReadBlock(0, 0, vh, vw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- iteration %d (viewport %dx%d via read service) ---\n", iter, vw, vh)
	for r := 0; r < vh; r++ {
		line := make([]byte, vw)
		for c := 0; c < vw; c++ {
			if cells[r*vw+c] != 0 {
				line[c] = '#'
			} else {
				line[c] = '.'
			}
		}
		fmt.Println(string(line))
	}
}
