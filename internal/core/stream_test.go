package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
)

type PartToken struct {
	Frame int
	Part  int
	Data  []byte
}

type FrameToken struct {
	Frame int
	Data  []byte
}

type ReqToken struct {
	Frames int
	Parts  int
}

type DoneToken struct {
	Frames int
}

var (
	_ = serial.MustRegister[PartToken]()
	_ = serial.MustRegister[FrameToken]()
	_ = serial.MustRegister[ReqToken]()
	_ = serial.MustRegister[DoneToken]()
)

// TestStreamRecomposesAndPipelines reproduces the paper's Figure 4 workload
// shape: partial frames are produced by a split, a stream operation
// recombines them into complete frames and forwards each frame as soon as
// its parts arrived, and a final merge collects processed frames.
func TestStreamRecomposesAndPipelines(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[struct{}](app, "workers")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("node0 node1"); err != nil {
		t.Fatal(err)
	}

	var firstFrameOut atomic.Int64 // time first complete frame left the stream
	var lastPartIn atomic.Int64    // time last part was generated

	gen := core.Split[*ReqToken, *PartToken]("gen-parts",
		func(c *core.Ctx, in *ReqToken, post func(*PartToken)) {
			for f := 0; f < in.Frames; f++ {
				for p := 0; p < in.Parts; p++ {
					post(&PartToken{Frame: f, Part: p, Data: []byte{byte(f), byte(p)}})
					time.Sleep(200 * time.Microsecond) // simulated disk read pacing
				}
			}
			lastPartIn.Store(time.Now().UnixNano())
		})
	recompose := core.Stream[*PartToken, *FrameToken]("recompose",
		func(c *core.Ctx, first *PartToken, next func() (*PartToken, bool), post func(*FrameToken)) {
			pending := make(map[int][][]byte)
			flush := func(p *PartToken) {
				pending[p.Frame] = append(pending[p.Frame], p.Data)
				if len(pending[p.Frame]) == 2 { // parts per frame fixed at 2 below
					if firstFrameOut.Load() == 0 {
						firstFrameOut.Store(time.Now().UnixNano())
					}
					post(&FrameToken{Frame: p.Frame, Data: append(pending[p.Frame][0], pending[p.Frame][1]...)})
					delete(pending, p.Frame)
				}
			}
			for in, ok := first, true; ok; in, ok = next() {
				flush(in)
			}
			if len(pending) != 0 {
				panic("incomplete frames left over")
			}
		})
	process := core.Leaf[*FrameToken, *FrameToken]("process",
		func(c *core.Ctx, in *FrameToken) *FrameToken { return in })
	collect := core.Merge[*FrameToken, *DoneToken]("collect",
		func(c *core.Ctx, first *FrameToken, next func() (*FrameToken, bool)) *DoneToken {
			n := 0
			seen := make(map[int]bool)
			for in, ok := first, true; ok; in, ok = next() {
				n++
				if seen[in.Frame] {
					panic("duplicate frame")
				}
				seen[in.Frame] = true
			}
			return &DoneToken{Frames: n}
		})

	g, err := app.NewFlowgraph("video", core.Path(
		core.NewNode(gen, main, core.MainRoute()),
		core.NewNode(recompose, main, core.MainRoute()),
		core.NewNode(process, workers, core.RoundRobin()),
		core.NewNode(collect, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	const frames = 40
	out, err := callWithin(g, app.MasterNode(), &ReqToken{Frames: frames, Parts: 2}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*DoneToken).Frames; got != frames {
		t.Fatalf("collected %d frames, want %d", got, frames)
	}
	// Pipelining assertion: the first complete frame must leave the stream
	// before the last part was generated (a merge+split would have waited).
	if firstFrameOut.Load() == 0 || lastPartIn.Load() == 0 {
		t.Fatal("timestamps not recorded")
	}
	if firstFrameOut.Load() >= lastPartIn.Load() {
		t.Fatal("stream did not pipeline: first frame left only after all parts were generated")
	}
}

// TestNestedSplitMerge exercises a split-merge construct nested inside
// another (paper Figure 14's structure).
func TestNestedSplitMerge(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	main := core.MustCollection[struct{}](app, "main")
	mid := core.MustCollection[struct{}](app, "mid")
	workers := core.MustCollection[struct{}](app, "workers")
	for _, m := range []struct {
		tc   *core.ThreadCollection
		spec string
	}{{main, "node0"}, {mid, "node1"}, {workers, "node1 node2"}} {
		if err := m.tc.Map(m.spec); err != nil {
			t.Fatal(err)
		}
	}

	outerSplit := core.Split[*CountToken, *CountToken]("outer-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: 4}) // each inner group has 4 sub-tasks
			}
		})
	innerSplit := core.Split[*CountToken, *CountToken]("inner-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: 1})
			}
		})
	work := core.Leaf[*CountToken, *CountToken]("work",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	innerMerge := core.Merge[*CountToken, *SumToken]("inner-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.N
			}
			return &SumToken{Sum: sum}
		})
	outerMerge := core.Merge[*SumToken, *SumToken]("outer-merge",
		func(c *core.Ctx, first *SumToken, next func() (*SumToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.Sum
			}
			return &SumToken{Sum: sum}
		})

	g, err := app.NewFlowgraph("nested", core.Path(
		core.NewNode(outerSplit, main, core.MainRoute()),
		core.NewNode(innerSplit, mid, core.MainRoute()),
		core.NewNode(work, workers, core.RoundRobin()),
		core.NewNode(innerMerge, mid, core.MainRoute()),
		core.NewNode(outerMerge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 7}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 7 inner groups x 4 tasks x value 1 = 28.
	if got := out.(*SumToken).Sum; got != 28 {
		t.Fatalf("nested sum = %d, want 28", got)
	}
}

// TestConditionalPaths reproduces Figure 3: the split emits two different
// token types which take different paths to the same merge.
type AToken struct{ V int }
type BToken struct{ V int }
type ABResult struct{ A, B int }

var (
	_ = serial.MustRegister[AToken]()
	_ = serial.MustRegister[BToken]()
	_ = serial.MustRegister[ABResult]()
)

func TestConditionalPaths(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[struct{}](app, "workers")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("node0 node1"); err != nil {
		t.Fatal(err)
	}

	split := core.SplitAny[*CountToken]("dispatch",
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		func(c *core.Ctx, in *CountToken, post func(core.Token)) {
			for i := 0; i < in.N; i++ {
				if i%2 == 0 {
					post(&AToken{V: i})
				} else {
					post(&BToken{V: i})
				}
			}
		})
	opA := core.Leaf[*AToken, *AToken]("opA",
		func(c *core.Ctx, in *AToken) *AToken { return &AToken{V: in.V * 10} })
	opB := core.Leaf[*BToken, *BToken]("opB",
		func(c *core.Ctx, in *BToken) *BToken { return &BToken{V: in.V * 100} })
	merge := core.MergeAny("joinAB",
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		[]core.Token{(*ABResult)(nil)},
		func(c *core.Ctx, first core.Token, next func() (core.Token, bool)) core.Token {
			res := &ABResult{}
			for in, ok := first, true; ok; in, ok = next() {
				switch v := in.(type) {
				case *AToken:
					res.A += v.V
				case *BToken:
					res.B += v.V
				}
			}
			return res
		})

	nodeSplit := core.NewNode(split, main, core.MainRoute())
	nodeA := core.NewNode(opA, workers, core.RoundRobin())
	nodeB := core.NewNode(opB, workers, core.RoundRobin())
	nodeMerge := core.NewNode(merge, main, core.MainRoute())
	b := core.Path(nodeSplit, nodeA, nodeMerge).Add(nodeSplit, nodeB, nodeMerge)
	g, err := app.NewFlowgraph("conditional", b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 10}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*ABResult)
	// A-sum: (0+2+4+6+8)*10 = 200; B-sum: (1+3+5+7+9)*100 = 2500.
	if res.A != 200 || res.B != 2500 {
		t.Fatalf("got A=%d B=%d, want 200/2500", res.A, res.B)
	}
}

// TestFlowControlWindow verifies the split stalls once Window tokens are in
// flight and resumes as the merge consumes.
func TestFlowControlWindow(t *testing.T) {
	const window = 4
	app := newLocalApp(t, core.Config{Window: window}, "node0")
	main := core.MustCollection[struct{}](app, "main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}

	var maxInFlight atomic.Int64
	var inFlight atomic.Int64

	split := core.Split[*CountToken, *CountToken]("burst",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				inFlight.Add(1)
				for {
					cur := inFlight.Load()
					if cur > maxInFlight.Load() {
						if !maxInFlight.CompareAndSwap(maxInFlight.Load(), cur) {
							continue
						}
					}
					break
				}
				post(&CountToken{N: i})
			}
		})
	slowMerge := core.Merge[*CountToken, *SumToken]("slow-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				inFlight.Add(-1)
				n++
				time.Sleep(time.Millisecond)
			}
			return &SumToken{Calls: n}
		})

	g, err := app.NewFlowgraph("window", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(slowMerge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: total}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SumToken).Calls; got != total {
		t.Fatalf("merged %d, want %d", got, total)
	}
	// Window + a small slack for the token handed to the merge execution.
	if got := maxInFlight.Load(); got > window+2 {
		t.Fatalf("max in flight %d exceeded window %d", got, window)
	}
}

// TestSplitStalledMergeSameThread reproduces the scenario that motivates
// releasing the thread lock while blocked: split and merge share one main
// thread; the split overruns the window and can only continue because the
// merge keeps consuming on the same thread.
func TestSplitStalledMergeSameThread(t *testing.T) {
	app := newLocalApp(t, core.Config{Window: 2}, "node0")
	main := core.MustCollection[struct{}](app, "main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *CountToken]("stall-split",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: i})
			}
		})
	merge := core.Merge[*CountToken, *SumToken]("stall-merge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &SumToken{Calls: n}
		})
	g, err := app.NewFlowgraph("stall", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 100}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SumToken).Calls; got != 100 {
		t.Fatalf("merged %d, want 100", got)
	}
}

// TestStreamChain checks two stream operations in sequence, each re-grouping.
func TestStreamChain(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	main := core.MustCollection[struct{}](app, "main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	split := core.Split[*CountToken, *CountToken]("s",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) {
			for i := 0; i < in.N; i++ {
				post(&CountToken{N: 1})
			}
		})
	double := core.Stream[*CountToken, *CountToken]("stream-double",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool), post func(*CountToken)) {
			for in, ok := first, true; ok; in, ok = next() {
				post(&CountToken{N: in.N * 2})
			}
		})
	addOne := core.Stream[*CountToken, *CountToken]("stream-addone",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool), post func(*CountToken)) {
			for in, ok := first, true; ok; in, ok = next() {
				post(&CountToken{N: in.N + 1})
			}
		})
	merge := core.Merge[*CountToken, *SumToken]("m",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *SumToken {
			sum := 0
			for in, ok := first, true; ok; in, ok = next() {
				sum += in.N
			}
			return &SumToken{Sum: sum}
		})
	g, err := app.NewFlowgraph("streamchain", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(double, main, core.MainRoute()),
		core.NewNode(addOne, main, core.MainRoute()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 8}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 8 tokens of value 1 → doubled (2) → +1 (3) → sum = 24.
	if got := out.(*SumToken).Sum; got != 24 {
		t.Fatalf("sum = %d, want 24", got)
	}
}
