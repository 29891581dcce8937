package core

import (
	"context"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/serial"
	"repro/internal/transport/tcptransport"
)

type corkTok struct{ N int }

var _ = serial.MustRegister[corkTok]()

// corkGraph is split (on a) → leaf (threads on b and c, round robin) →
// merge (on a), over one tcptransport node per name; the leaf runs body.
func corkGraph(t *testing.T, cfg Config, workers string, split func(c *Ctx, in *corkTok, post func(*corkTok)), body func(*corkTok)) (*Flowgraph, []*tcptransport.Node) {
	t.Helper()
	app, nodes := newTCPApp(t, cfg, "a", "b", "c")
	t.Cleanup(app.Close)
	main, work := MustCollection[struct{}](app, "main"), MustCollection[struct{}](app, "work")
	if err := main.Map("a"); err != nil {
		t.Fatal(err)
	}
	if err := work.Map(workers); err != nil {
		t.Fatal(err)
	}
	g, err := app.NewFlowgraph("cork", Path(
		NewNode(Split[*corkTok, *corkTok]("parts", split), main, MainRoute()),
		NewNode(Leaf[*corkTok, *corkTok]("part", func(c *Ctx, in *corkTok) *corkTok { body(in); return in }), work, RoundRobin()),
		NewNode(Merge[*corkTok, *corkTok]("sum", func(c *Ctx, first *corkTok, next func() (*corkTok, bool)) *corkTok {
			n := 0
			for ok := true; ok; _, ok = next() {
				n++
			}
			return &corkTok{N: n}
		}), main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return g, nodes
}

func callCork(t *testing.T, g *Flowgraph, in *corkTok) (Token, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return g.CallFrom(ctx, "a", in)
}

// TestCorkSplitWritesPerDestination: a width-8 split to four leaf threads on
// two remote nodes writes its parts in one write per destination, plus one
// per backstop firing (a slow run, e.g. under the race detector, may lose
// its processor between two posts). The split's end uncorks, so not every
// burst waits for the backstop. With Config.Batch the batcher owns the
// burst and nothing is corked.
func TestCorkSplitWritesPerDestination(t *testing.T) {
	const width, dests, calls = 8, 2, 20
	fan := func(c *Ctx, in *corkTok, post func(*corkTok)) {
		for i := 0; i < in.N; i++ {
			post(&corkTok{N: i})
		}
	}
	for _, batch := range []bool{false, true} {
		g, nodes := corkGraph(t, Config{Batch: batch}, "b*2 c*2", fan, func(*corkTok) {})
		a := nodes[0]
		for i := 0; i < 3; i++ { // dial a→b and a→c
			if _, err := callCork(t, g, &corkTok{N: width}); err != nil {
				t.Fatal(err)
			}
		}
		var writes, corked, timeouts, frames int64
		for i := 0; i < calls; i++ {
			before := a.Stats()
			out, err := callCork(t, g, &corkTok{N: width})
			if err != nil {
				t.Fatal(err)
			}
			if out.(*corkTok).N != width {
				t.Fatalf("merge saw %d parts, want %d", out.(*corkTok).N, width)
			}
			after := a.Stats()
			writes += after.Writes - before.Writes
			corked += after.FramesCorked - before.FramesCorked
			timeouts += after.CorkTimeouts - before.CorkTimeouts
			frames += after.FramesSent - before.FramesSent
		}
		t.Logf("batch=%v: %d calls, %d frames in %d writes, %d corked, %d backstop firings", batch, calls, frames, writes, corked, timeouts)
		if batch {
			if corked != 0 {
				t.Fatalf("Config.Batch: %d frames corked, want none", corked)
			}
			continue
		}
		// A backstop firing while a write is in progress leaves the frames
		// it let go queued, and the rest of that burst joins them.
		if width*calls-corked > width*timeouts {
			t.Fatalf("%d of %d parts corked with %d backstop firings", corked, width*calls, timeouts)
		}
		if writes > dests*calls+timeouts {
			t.Fatalf("%d writes for %d calls with %d backstop firings: want at most %d per call plus one per firing", writes, calls, timeouts, dests)
		}
		if timeouts >= dests*calls {
			t.Fatalf("%d backstop firings for %d bursts: the split's end does not uncork", timeouts, dests*calls)
		}
	}
}

// TestCorkUncorksWhenSplitStalls: a split that stalls on its flow-control
// window uncorks before it waits, so the parts the window admitted leave at
// once rather than when the backstop fires.
func TestCorkUncorksWhenSplitStalls(t *testing.T) {
	const width, calls = 8, 10
	g, nodes := corkGraph(t, Config{Window: 2}, "b*2 c*2", func(c *Ctx, in *corkTok, post func(*corkTok)) {
		for i := 0; i < in.N; i++ {
			post(&corkTok{N: i})
		}
	}, func(*corkTok) {})
	a := nodes[0]
	if _, err := callCork(t, g, &corkTok{N: width}); err != nil { // dial
		t.Fatal(err)
	}
	before, stalls := a.Stats(), g.App().Stats().WindowStalls
	for i := 0; i < calls; i++ {
		if _, err := callCork(t, g, &corkTok{N: width}); err != nil {
			t.Fatal(err)
		}
	}
	stalls = g.App().Stats().WindowStalls - stalls
	timeouts := a.Stats().CorkTimeouts - before.CorkTimeouts
	t.Logf("%d calls: %d window stalls, %d backstop firings", calls, stalls, timeouts)
	if stalls < calls {
		t.Fatalf("%d stalls in %d calls: the window did not hold the split back", stalls, calls)
	}
	if timeouts >= stalls/2 {
		t.Fatalf("%d backstop firings for %d stalls: a stalled split does not uncork", timeouts, stalls)
	}
}

// TestCorkBackstopUnblocksSplit: a split that posts and then waits, outside
// the engine, for its leaf to run never uncorks; the transport's backstop
// writes the part anyway. Without it the call would deadlock.
func TestCorkBackstopUnblocksSplit(t *testing.T) {
	ran := make(chan struct{})
	var once sync.Once
	leafRan := func(*corkTok) { once.Do(func() { close(ran) }) }
	g, nodes := corkGraph(t, Config{}, "b", func(c *Ctx, in *corkTok, post func(*corkTok)) {
		post(&corkTok{N: 1})
		<-ran
	}, leafRan)
	t.Cleanup(func() { leafRan(nil) }) // runs before app.Close: a stuck split lets go
	start := time.Now()
	if _, err := callCork(t, g, &corkTok{}); err != nil {
		t.Fatalf("split waiting on its own leaf: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the call took %v", d)
	}
	if st := nodes[0].Stats(); st.CorkTimeouts == 0 {
		t.Fatalf("stats %+v: the part left without the backstop", st)
	}
}

// TestCorkPanicLeavesNothingCorked: a split whose body panics after posting
// has its part written before the application fails.
func TestCorkPanicLeavesNothingCorked(t *testing.T) {
	g, nodes := corkGraph(t, Config{}, "b", func(c *Ctx, in *corkTok, post func(*corkTok)) {
		post(&corkTok{N: 1})
		panic("split gives up")
	}, func(*corkTok) {})
	a := nodes[0]
	before := a.Stats()
	if _, err := callCork(t, g, &corkTok{}); err == nil {
		t.Fatal("a panicking split did not fail the call")
	}
	after := a.Stats()
	corked, sent := after.FramesCorked-before.FramesCorked, after.FramesSent-before.FramesSent
	if corked != 1 {
		t.Fatalf("%d frames corked, want the one part", corked)
	}
	// The part is written by the time the call fails, or the backstop (a
	// slow run) took it before the panic unwound.
	if sent < corked && after.CorkTimeouts == before.CorkTimeouts {
		t.Fatal("the application failed with the panicking split's part still corked")
	}
}

// TestCtxSizeClass: the cork flag rides in Ctx's padding; one Ctx per leaf
// or split execution must stay in the 96-byte size class.
func TestCtxSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Ctx{}); size > 96 {
		t.Fatalf("Ctx is %d bytes, over the 96-byte size class", size)
	}
}

// TestEnvelopeSizeClass: an envelope fills its 352-byte size class and a
// buffered token is 80 bytes, with or without fault tolerance, because a
// sender stream is two words, no larger than the string it replaced. A
// stream of {place.Key, uint64} padded them by 32 and 16 bytes, and raised
// call_fan's alloc_bytes_per_op by 1.7 % (1 989 -> 2 023 B, two 6 s pairs).
func TestEnvelopeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(envelope{}); size > 352 {
		t.Errorf("envelope is %d bytes, over the 352-byte size class", size)
	}
	if size := unsafe.Sizeof(bufferedToken{}); size > 80 {
		t.Errorf("bufferedToken is %d bytes, over 80", size)
	}
}
