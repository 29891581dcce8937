package parlife

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/life"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// callWithin is core.Flowgraph.CallFrom under a context.WithTimeout of d.
func callWithin(g *core.Flowgraph, origin string, tok core.Token, d time.Duration) (core.Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

func newApp(t testing.TB, nodes int) *core.App {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = nodeName(i)
	}
	app, err := core.NewLocalApp(core.Config{}, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

func nodeName(i int) string {
	return string(rune('a'+i)) + "-node"
}

func checkAgainstReference(t *testing.T, width, height, workers, steps int, improved bool, app *core.App, name string) {
	t.Helper()
	world := life.RandomWorld(width, height, 0.35, 1234)
	sim, err := New(app, width, height, Options{Name: name, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	if err := sim.StepN(steps, improved); err != nil {
		t.Fatal(err)
	}
	got, err := sim.Gather()
	if err != nil {
		t.Fatal(err)
	}
	want := world.StepN(steps)
	if !got.Equal(want) {
		t.Fatalf("%s: distributed result differs from reference after %d steps (pop %d vs %d)",
			name, steps, got.Population(), want.Population())
	}
}

func TestSimpleGraphMatchesReference(t *testing.T) {
	app := newApp(t, 3)
	checkAgainstReference(t, 32, 30, 3, 5, false, app, "simple3")
}

func TestImprovedGraphMatchesReference(t *testing.T) {
	app := newApp(t, 3)
	checkAgainstReference(t, 32, 30, 3, 5, true, app, "improved3")
}

func TestSingleWorker(t *testing.T) {
	app := newApp(t, 1)
	checkAgainstReference(t, 16, 12, 1, 4, false, app, "single-simple")
	checkAgainstReference(t, 16, 12, 1, 4, true, app, "single-improved")
}

func TestManyWorkersSmallBands(t *testing.T) {
	// Bands of 1-2 rows stress the edge/interior split.
	app := newApp(t, 2)
	checkAgainstReference(t, 20, 7, 5, 3, true, app, "tiny-bands")
}

func TestOverSimnet(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 200e6, Latency: 20 * time.Microsecond, PerMessage: 5 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "n0", "n1", "n2", "n3")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	world := life.RandomWorld(40, 36, 0.4, 99)
	sim, err := New(app, 40, 36, Options{Name: "simnet-life", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	if err := sim.StepN(3, true); err != nil {
		t.Fatal(err)
	}
	got, err := sim.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(world.StepN(3)) {
		t.Fatal("simnet run differs from reference")
	}
}

func TestAlternatingVariants(t *testing.T) {
	// Mixing simple and improved iterations must stay correct (both share
	// the same worker state discipline).
	app := newApp(t, 2)
	world := life.RandomWorld(24, 20, 0.3, 5)
	sim, err := New(app, 24, 20, Options{Name: "alt", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := sim.Step(i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sim.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(world.StepN(6)) {
		t.Fatal("alternating variants diverged")
	}
}

func TestReadBlockMatchesWorld(t *testing.T) {
	app := newApp(t, 3)
	world := life.RandomWorld(30, 27, 0.45, 7)
	sim, err := New(app, 30, 27, Options{Name: "read", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ row, col, h, w int }{
		{0, 0, 5, 5},
		{8, 3, 10, 20},
		{25, 28, 6, 6},   // wraps both axes
		{26, 29, 27, 30}, // whole world, wrapped
		{5, 5, 1, 1},
	}
	for _, tc := range cases {
		got, err := sim.ReadBlock(tc.row, tc.col, tc.h, tc.w)
		if err != nil {
			t.Fatalf("ReadBlock(%+v): %v", tc, err)
		}
		want := world.SubGrid(tc.row, tc.col, tc.h, tc.w)
		if len(got) != len(want) {
			t.Fatalf("ReadBlock(%+v): %d cells, want %d", tc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ReadBlock(%+v): cell %d differs", tc, i)
			}
		}
	}
}

func TestReadServiceDuringIterations(t *testing.T) {
	// Table 2's scenario: the read service is called while the simulation
	// iterates. Reads must return internally consistent blocks (we can't
	// assert a specific generation, but sizes and liveness must hold).
	app := newApp(t, 2)
	world := life.RandomWorld(40, 40, 0.4, 3)
	sim, err := New(app, 40, 40, Options{Name: "live-read", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sim.Step(true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		cells, err := sim.ReadBlock(i%40, (i*3)%40, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 64 {
			t.Fatalf("read %d cells", len(cells))
		}
	}
	close(stop)
	wg.Wait()
}

func TestExposedServiceFromOtherApp(t *testing.T) {
	// A separate client application calls the life world-read service —
	// the paper's visualization client (Figure 10).
	app := newApp(t, 2)
	world := life.RandomWorld(20, 20, 0.5, 11)
	sim, err := New(app, 20, 20, Options{Name: "svc", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}

	clientApp, err := core.NewLocalApp(core.Config{}, "client0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientApp.Close()
	tc := core.MustCollection[struct{}](clientApp, "client")
	if err := tc.Map("client0"); err != nil {
		t.Fatal(err)
	}
	callOp := core.GraphCallOp("call-read", sim.ReadGraph())
	g, err := clientApp.NewFlowgraph("viz", core.Path(core.NewNode(callOp, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, clientApp.MasterNode(), &ReadReq{Row: 2, Col: 3, H: 4, W: 5}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := out.(*ReadResp)
	want := world.SubGrid(2, 3, 4, 5)
	if resp.H != 4 || resp.W != 5 || len(resp.Cells) != 20 {
		t.Fatalf("bad response %+v", resp)
	}
	for i := range want {
		if resp.Cells[i] != want[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestErrors(t *testing.T) {
	app := newApp(t, 1)
	if _, err := New(app, 10, 2, Options{Name: "bad", Workers: 5}); err == nil {
		t.Fatal("expected error: more workers than rows")
	}
	if _, err := New(app, 10, 10, Options{Name: "bad2", Workers: 0}); err == nil {
		t.Fatal("expected error: zero workers")
	}
	sim, err := New(app, 10, 10, Options{Name: "ok", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(life.NewWorld(5, 5)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}
