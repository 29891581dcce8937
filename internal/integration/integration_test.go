// Package integration exercises the full stack — serialization, simulated
// network, DPS runtime, application graphs and the kernel environment —
// through end-to-end scenarios that cross package boundaries.
package integration

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/life"
	"repro/internal/matrix"
	"repro/internal/parlife"
	"repro/internal/parlin"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// callWithin is core.Flowgraph.CallFrom under a context.WithTimeout of d.
func callWithin(g *core.Flowgraph, origin string, tok core.Token, d time.Duration) (core.Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

// --- Figure 4: stream pipelining (per-experiment index in DESIGN.md) -----

type vsReq struct {
	Frames, Parts int
}

type vsPart struct {
	Frame, Part, Parts int
	Data               []byte
}

type vsFrame struct {
	Frame int
}

type vsDone struct {
	Frames int
}

var (
	_ = serial.MustRegister[vsReq]()
	_ = serial.MustRegister[vsPart]()
	_ = serial.MustRegister[vsFrame]()
	_ = serial.MustRegister[vsDone]()
)

// TestVideoStreamPipelining asserts the Figure 4 property: the first
// complete frame leaves the stream operation before the last frame part
// has been produced, which a merge+split sequence cannot do.
func TestVideoStreamPipelining(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 200e6, Latency: 20 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "d0", "d1")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{Window: 16}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	master := core.MustCollection[struct{}](app, "master")
	if err := master.Map("d0"); err != nil {
		t.Fatal(err)
	}
	disks := core.MustCollection[struct{}](app, "disks")
	if err := disks.Map("d0 d1"); err != nil {
		t.Fatal(err)
	}

	var lastRead, firstFrame atomic.Int64
	gen := core.Split[*vsReq, *vsPart]("gen",
		func(c *core.Ctx, in *vsReq, post func(*vsPart)) {
			for f := 0; f < in.Frames; f++ {
				for p := 0; p < in.Parts; p++ {
					post(&vsPart{Frame: f, Part: p, Parts: in.Parts})
				}
			}
		})
	read := core.Leaf[*vsPart, *vsPart]("read",
		func(c *core.Ctx, in *vsPart) *vsPart {
			time.Sleep(300 * time.Microsecond)
			lastRead.Store(time.Now().UnixNano())
			in.Data = make([]byte, 4<<10)
			return in
		})
	recompose := core.Stream[*vsPart, *vsFrame]("recompose",
		func(c *core.Ctx, first *vsPart, next func() (*vsPart, bool), post func(*vsFrame)) {
			got := map[int]int{}
			for in, ok := first, true; ok; in, ok = next() {
				got[in.Frame]++
				if got[in.Frame] == in.Parts {
					firstFrame.CompareAndSwap(0, time.Now().UnixNano())
					post(&vsFrame{Frame: in.Frame})
				}
			}
		})
	collect := core.Merge[*vsFrame, *vsDone]("collect",
		func(c *core.Ctx, first *vsFrame, next func() (*vsFrame, bool)) *vsDone {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &vsDone{Frames: n}
		})
	g, err := app.NewFlowgraph("video", core.Path(
		core.NewNode(gen, master, core.MainRoute()),
		core.NewNode(read, disks, core.ByKey[*vsPart]("stripe", func(in *vsPart) int { return in.Part })),
		core.NewNode(recompose, master, core.MainRoute()),
		core.NewNode(collect, master, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &vsReq{Frames: 30, Parts: 2}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*vsDone).Frames; got != 30 {
		t.Fatalf("collected %d frames", got)
	}
	if firstFrame.Load() == 0 || lastRead.Load() == 0 {
		t.Fatal("timestamps missing")
	}
	if firstFrame.Load() >= lastRead.Load() {
		t.Fatal("stream did not pipeline: first frame left after the last disk read")
	}
}

// --- node failure ---------------------------------------------------------

// TestNodeFailureFailsCalls removes a cluster node mid-run; in-flight calls
// must fail with an error instead of hanging (the runtime surfaces the
// transport failure), matching the paper's observation that node failures
// need explicit handling (their future work on graceful degradation).
func TestNodeFailureFailsCalls(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 50e6, Latency: 100 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "f0", "f1")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{Window: 4}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	master := core.MustCollection[struct{}](app, "master")
	if err := master.Map("f0"); err != nil {
		t.Fatal(err)
	}
	workers := core.MustCollection[struct{}](app, "workers")
	if err := workers.Map("f1"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*parlife.StepOrder, *parlife.StepOrder]("fan",
		func(c *core.Ctx, in *parlife.StepOrder, post func(*parlife.StepOrder)) {
			for i := 0; i < 500; i++ {
				post(&parlife.StepOrder{Iter: i})
			}
		})
	slow := core.Leaf[*parlife.StepOrder, *parlife.StepOrder]("slow",
		func(c *core.Ctx, in *parlife.StepOrder) *parlife.StepOrder {
			time.Sleep(time.Millisecond)
			return in
		})
	merge := core.Merge[*parlife.StepOrder, *parlife.StepOrder]("join",
		func(c *core.Ctx, first *parlife.StepOrder, next func() (*parlife.StepOrder, bool)) *parlife.StepOrder {
			for _, ok := first, true; ok; _, ok = next() {
			}
			return first
		})
	g, err := app.NewFlowgraph("fail", core.Path(
		core.NewNode(split, master, core.MainRoute()),
		core.NewNode(slow, workers, core.MainRoute()),
		core.NewNode(merge, master, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := g.CallAsyncFrom(context.Background(), "f0", &parlife.StepOrder{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the pipeline fill
	if !net.RemoveNode("f1") {
		t.Fatal("node not removed")
	}
	select {
	case res := <-ch:
		if res.Err == nil {
			t.Fatal("call succeeded despite node failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("call hung after node failure")
	}
}

// --- stats ------------------------------------------------------------------

func TestStatsAccounting(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	trs, err := transport.SimNodes(net, "s0", "s1")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{Window: 8}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	sim, err := parlife.New(app, 64, 64, parlife.Options{Name: "life", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(life.RandomWorld(64, 64, 0.3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sim.StepN(3, true); err != nil {
		t.Fatal(err)
	}
	st := app.Stats()
	if st.TokensPosted == 0 {
		t.Error("no tokens accounted")
	}
	if st.TokensRemote == 0 {
		t.Error("no remote tokens despite two nodes")
	}
	if st.TokensLocal == 0 {
		t.Error("no local bypass despite master-side merges")
	}
	if st.BytesSent == 0 {
		t.Error("no bytes accounted")
	}
	if st.GroupsOpened == 0 || st.AcksSent == 0 {
		t.Errorf("group accounting empty: %+v", st)
	}
	if st.CallsCompleted < 4 { // load + 3 steps
		t.Errorf("CallsCompleted = %d", st.CallsCompleted)
	}
	if st.TokensLocal+st.TokensRemote != st.TokensPosted {
		t.Errorf("local(%d)+remote(%d) != posted(%d)",
			st.TokensLocal, st.TokensRemote, st.TokensPosted)
	}
}

func TestWindowStallCounter(t *testing.T) {
	app, err := core.NewLocalApp(core.Config{Window: 2}, "w0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("w0"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*parlife.StepOrder, *parlife.StepOrder]("burst",
		func(c *core.Ctx, in *parlife.StepOrder, post func(*parlife.StepOrder)) {
			for i := 0; i < 50; i++ {
				post(&parlife.StepOrder{Iter: i})
			}
		})
	merge := core.Merge[*parlife.StepOrder, *parlife.StepOrder]("drain",
		func(c *core.Ctx, first *parlife.StepOrder, next func() (*parlife.StepOrder, bool)) *parlife.StepOrder {
			for _, ok := first, true; ok; _, ok = next() {
				time.Sleep(100 * time.Microsecond)
			}
			return first
		})
	g, err := app.NewFlowgraph("stall", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(merge, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := callWithin(g, "w0", &parlife.StepOrder{}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if app.Stats().WindowStalls == 0 {
		t.Error("expected window stalls with Window=2 and a slow merge")
	}
}

// --- combined applications on one cluster ---------------------------------

// TestLifeAndLUShareCluster runs two distinct DPS applications (Game of
// Life and LU factorization) on the same simulated cluster concurrently —
// the paper's server scenario of multiple parallel applications sharing
// resources.
func TestLifeAndLUShareCluster(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 500e6, Latency: 10 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "la0", "la1")
	if err != nil {
		t.Fatal(err)
	}
	lifeApp, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer lifeApp.Close()
	trs, err = transport.SimNodes(net, "lb0", "lb1")
	if err != nil {
		t.Fatal(err)
	}
	luApp, err := core.NewAppOn(core.Config{Window: 128}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer luApp.Close()

	world := life.RandomWorld(48, 48, 0.4, 2)
	sim, err := parlife.New(lifeApp, 48, 48, parlife.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(world); err != nil {
		t.Fatal(err)
	}
	lu, err := parlin.NewLU(luApp, 64, 16, parlin.LUOptions{Workers: 2, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	go func() { errs <- sim.StepN(5, true) }()
	go func() {
		a := matrix.Random(64, 64, 9)
		fact, piv, err := lu.Factor(a)
		if err == nil && matrix.ResidualLU(a, fact, piv) > 1e-8 {
			err = fmt.Errorf("LU residual too large")
		}
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got, err := sim.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(world.StepN(5)) {
		t.Fatal("life result wrong when sharing the cluster")
	}
}

// --- kernels + DPS application over TCP with lazy launch -------------------

func TestLazyLaunchedAppOverKernels(t *testing.T) {
	ns, err := kernel.StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	k0, err := kernel.Start("ik0", "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer k0.Close()
	k1, err := kernel.Start("ik1", "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer k1.Close()

	// The worker half of the application is launched by k1 only when the
	// first data object reaches it — the paper's on-demand instance start.
	var launched atomic.Bool
	echoed := make(chan string, 4)
	k1.RegisterApp("lazyapp", func(k *kernel.Kernel) error {
		launched.Store(true)
		tr := k.Transport("lazyapp")
		tr.SetHandler(func(src string, payload []byte) {
			// Echo back to the sender.
			_ = tr.Send(src, append([]byte("re:"), payload...))
		})
		return nil
	})

	client := k0.Transport("lazyapp")
	client.SetHandler(func(src string, payload []byte) { echoed <- string(payload) })
	if launched.Load() {
		t.Fatal("factory ran before any message")
	}
	if err := client.Send("ik1", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-echoed:
		if m != "re:ping" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no echo: lazy launch failed")
	}
	if !launched.Load() {
		t.Fatal("factory flag not set")
	}
	if !k1.Launched("lazyapp") {
		t.Fatal("kernel does not report the app as launched")
	}
}

// TestUppercaseEndToEndAllTransports runs the same application over the
// in-process fabric, the simulated network (with ForceSerialize), and TCP
// kernels, asserting identical results.
func TestUppercaseEndToEndAllTransports(t *testing.T) {
	input := "the quick brown fox"
	want := strings.ToUpper(input)

	type appBuilder func(t *testing.T) (*core.App, func())
	builders := map[string]appBuilder{
		"inproc": func(t *testing.T) (*core.App, func()) {
			app, err := core.NewLocalApp(core.Config{}, "x0", "x1")
			if err != nil {
				t.Fatal(err)
			}
			return app, app.Close
		},
		"simnet-forceserialize": func(t *testing.T) (*core.App, func()) {
			net := simnet.New(simnet.Config{Bandwidth: 100e6})
			trs, err := transport.SimNodes(net, "x0", "x1")
			if err != nil {
				t.Fatal(err)
			}
			app, err := core.NewAppOn(core.Config{ForceSerialize: true}, trs...)
			if err != nil {
				t.Fatal(err)
			}
			return app, func() { app.Close(); net.Close() }
		},
		"tcp-kernels": func(t *testing.T) (*core.App, func()) {
			ns, err := kernel.StartNameServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			k0, err := kernel.Start("x0", "127.0.0.1:0", ns.Addr())
			if err != nil {
				t.Fatal(err)
			}
			k1, err := kernel.Start("x1", "127.0.0.1:0", ns.Addr())
			if err != nil {
				t.Fatal(err)
			}
			app := core.NewApp(core.Config{})
			if _, err := app.AttachTransport(k0.Transport("e2e")); err != nil {
				t.Fatal(err)
			}
			if _, err := app.AttachTransport(k1.Transport("e2e")); err != nil {
				t.Fatal(err)
			}
			return app, func() { app.Close(); k0.Close(); k1.Close(); ns.Close() }
		},
	}

	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			app, cleanup := build(t)
			defer cleanup()
			main := core.MustCollection[struct{}](app, "main")
			if err := main.Map("x0"); err != nil {
				t.Fatal(err)
			}
			workers := core.MustCollection[struct{}](app, "workers")
			if err := workers.Map("x1*2"); err != nil {
				t.Fatal(err)
			}
			split := core.Split[*wordsReq, *word]("split",
				func(c *core.Ctx, in *wordsReq, post func(*word)) {
					for i, w := range strings.Fields(in.Text) {
						post(&word{W: w, Pos: i})
					}
				})
			up := core.Leaf[*word, *word]("upper",
				func(c *core.Ctx, in *word) *word { return &word{W: strings.ToUpper(in.W), Pos: in.Pos} })
			join := core.Merge[*word, *wordsReq]("join",
				func(c *core.Ctx, first *word, next func() (*word, bool)) *wordsReq {
					out := map[int]string{}
					max := 0
					for in, ok := first, true; ok; in, ok = next() {
						out[in.Pos] = in.W
						if in.Pos > max {
							max = in.Pos
						}
					}
					parts := make([]string, max+1)
					for i := range parts {
						parts[i] = out[i]
					}
					return &wordsReq{Text: strings.Join(parts, " ")}
				})
			g, err := app.NewFlowgraph("e2e-upper", core.Path(
				core.NewNode(split, main, core.MainRoute()),
				core.NewNode(up, workers, core.RoundRobin()),
				core.NewNode(join, main, core.MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}
			out, err := callWithin(g, "x0", &wordsReq{Text: input}, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.(*wordsReq).Text; got != want {
				t.Fatalf("got %q want %q", got, want)
			}
		})
	}
}

type wordsReq struct {
	Text string
}

type word struct {
	W   string
	Pos int
}

var (
	_ = serial.MustRegister[wordsReq]()
	_ = serial.MustRegister[word]()
)
