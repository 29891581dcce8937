package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/race"
	"repro/internal/serial"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

type corkTok struct {
	N   int
	Pad []byte
}

var _ = serial.MustRegister[corkTok]()

// corkGraph is split (on a) → leaf (threads on b and c, round robin) →
// merge (on a), over one tcptransport node per name; the leaf runs body.
func corkGraph(t *testing.T, cfg Config, workers string, split func(c *Ctx, in *corkTok, post func(*corkTok)), body func(*corkTok)) (*Flowgraph, []*tcptransport.Node) {
	t.Helper()
	app, nodes := newTCPApp(t, cfg, nil, "a", "b", "c")
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
// its processor between two posts). The split's drainer uncorks when its
// queue runs dry, so not every burst waits for the backstop.
func TestCorkSplitWritesPerDestination(t *testing.T) {
	const width, dests, calls = 8, 2, 20
	fan := func(c *Ctx, in *corkTok, post func(*corkTok)) {
		for i := 0; i < in.N; i++ {
			post(&corkTok{N: i})
		}
	}
	g, nodes := corkGraph(t, Config{}, "b*2 c*2", fan, func(*corkTok) {})
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
	t.Logf("%d calls, %d frames in %d writes, %d corked, %d backstop firings", calls, frames, writes, corked, timeouts)
	// A backstop firing while a write is in progress leaves the frames
	// it let go queued, and the rest of that burst joins them.
	if width*calls-corked > width*timeouts {
		t.Fatalf("%d of %d parts corked with %d backstop firings", corked, width*calls, timeouts)
	}
	if writes > dests*calls+timeouts {
		t.Fatalf("%d writes for %d calls with %d backstop firings: want at most %d per call plus one per firing", writes, calls, timeouts, dests)
	}
	if timeouts >= dests*calls {
		t.Fatalf("%d backstop firings for %d bursts: the split's drainer does not uncork", timeouts, dests*calls)
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

// holdUncork is a tcptransport node whose first Uncork after arm writes the
// corked frames and then holds, as a socket write that does not return
// would, until release is closed. It counts the acks its handler finished.
type holdUncork struct {
	*tcptransport.Node
	armed   atomic.Bool
	held    chan struct{} // closed when the armed Uncork holds
	release chan struct{}
	acks    atomic.Int64
}

func (h *holdUncork) Uncork() {
	h.Node.Uncork()
	if h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
}

func (h *holdUncork) SetHandler(fn transport.Handler) {
	h.Node.SetHandler(func(src string, payload []byte) {
		ack := len(payload) > 0 && payload[0] == msgAck
		fn(src, payload)
		if ack {
			h.acks.Add(1)
		}
	})
}

// TestCorkStallWritesNoSocketUnderGateLock: a split that stalls on its
// window lets go of its corked parts before the gate's wait, with no lock
// held. While that write is held, the ack of a part the write did send is
// applied by the read loop (Gate.Release) and a cancel of the call
// completes (Gate.Wake); neither waits for the write.
func TestCorkStallWritesNoSocketUnderGateLock(t *testing.T) {
	app := NewApp(Config{Window: 2})
	table := map[string]string{}
	var a *holdUncork
	for _, name := range []string{"a", "b", "c"} {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", tcptransport.StaticResolver(table))
		if err != nil {
			t.Fatal(err)
		}
		table[name] = n.Addr()
		var tr transport.Transport = n
		if name == "a" {
			a = &holdUncork{Node: n, held: make(chan struct{}), release: make(chan struct{})}
			tr = a
		}
		if _, err := app.AttachTransport(tr); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(app.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(a.release) }) }
	t.Cleanup(release) // runs before app.Close
	main, work, sink := MustCollection[struct{}](app, "main"), MustCollection[struct{}](app, "work"), MustCollection[struct{}](app, "sink")
	for tc, node := range map[*ThreadCollection]string{main: "a", work: "b", sink: "c"} {
		if err := tc.Map(node); err != nil {
			t.Fatal(err)
		}
	}
	g, err := app.NewFlowgraph("stall", Path(
		NewNode(Split[*corkTok, *corkTok]("parts", func(c *Ctx, in *corkTok, post func(*corkTok)) {
			// Armed here, with the drainer role held, so that the held
			// Uncork is this split's and not the last call's idle step.
			a.armed.Store(len(in.Pad) > 0)
			for i := 0; i < in.N; i++ {
				post(&corkTok{N: i})
			}
		}), main, MainRoute()),
		NewNode(Leaf[*corkTok, *corkTok]("part", func(c *Ctx, in *corkTok) *corkTok { return in }), work, RoundRobin()),
		NewNode(Merge[*corkTok, *corkTok]("count", func(c *Ctx, first *corkTok, next func() (*corkTok, bool)) *corkTok {
			n := 0
			for ok := true; ok; _, ok = next() {
				n++
			}
			return &corkTok{N: n}
		}), sink, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	const width = 8
	if _, err := callCork(t, g, &corkTok{N: width}); err != nil { // dial every link
		t.Fatal(err)
	}

	acks := a.acks.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := g.CallFrom(ctx, "a", &corkTok{N: width, Pad: []byte{1}})
		done <- err
	}()
	select {
	case <-a.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled split never uncorked")
	}
	// The held write sent the window's two parts; their acks come back
	// from c through a's read loop.
	deadline := time.Now().Add(5 * time.Second)
	for a.acks.Load()-acks < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 acks applied while the stalled split's write was held", a.acks.Load()-acks)
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancel did not complete while the stalled split's write was held")
	}
	release()
	if _, err := callCork(t, g, &corkTok{N: width}); err != nil {
		t.Fatalf("the next call: %v", err)
	}
}

// corkHeldLeaf builds corkGraph with one leaf thread on b whose first
// execution of a call (part 0) holds the drainer role until the call's other
// parts are queued behind it, so that they run back to back; slow is the
// leaf body of every other part. The split posts in.N parts of pad bytes.
func corkHeldLeaf(t *testing.T, pad int, slow func(*corkTok)) (*Flowgraph, *tcptransport.Node) {
	t.Helper()
	var app *App
	var queued atomic.Int64 // parts to wait for behind part 0
	split := func(c *Ctx, in *corkTok, post func(*corkTok)) {
		queued.Store(int64(in.N - 1))
		for i := 0; i < in.N; i++ {
			post(&corkTok{N: i, Pad: make([]byte, pad)})
		}
	}
	body := func(in *corkTok) {
		if in.N != 0 {
			slow(in)
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for app.QueueDepth() < queued.Load() && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	g, nodes := corkGraph(t, Config{}, "b", split, body)
	app = g.App()
	if _, err := callCork(t, g, &corkTok{N: 1}); err != nil { // dial
		t.Fatal(err)
	}
	b := nodes[1]
	framesSettle(t, b, 1)
	return g, b
}

// framesSettle waits until n has counted want frames sent: a write's frames
// are counted once it returns, which can be after the receiver acted on
// them.
func framesSettle(t *testing.T, n *tcptransport.Node, want int64) tcptransport.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := n.Stats()
		if st.FramesSent >= want || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestCorkLeafDrainerWritesPerCorkLimit: a leaf drainer that runs n queued
// parts back to back corks every output for the merge's node, and they
// leave in one write per 32 KiB (corkLimit) and one for the rest when the
// queue runs dry: ⌈bytes / 32 KiB⌉ writes, with no backstop firing. Each
// output is 4 000 bytes of padding behind a header of under 100 bytes, so
// nine fill a write and 20 make three. A drainer that loses its processor
// for 100 µs between two parts lets the backstop fire; such a round is
// tried again, and under the race detector, where every round does, the
// writes are only held to three plus one per firing.
func TestCorkLeafDrainerWritesPerCorkLimit(t *testing.T) {
	const n, pad, want = 20, 4000, 3
	g, b := corkHeldLeaf(t, pad, func(*corkTok) {})
	for round := 1; ; round++ {
		before := b.Stats()
		out, err := callCork(t, g, &corkTok{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if out.(*corkTok).N != n {
			t.Fatalf("merge saw %d parts, want %d", out.(*corkTok).N, n)
		}
		after := framesSettle(t, b, before.FramesSent+n)
		writes, frames, timeouts := after.Writes-before.Writes, after.FramesSent-before.FramesSent, after.CorkTimeouts-before.CorkTimeouts
		t.Logf("round %d: %d outputs in %d writes, %d backstop firings", round, frames, writes, timeouts)
		if frames != n {
			t.Fatalf("%d frames from the leaf's node, want its %d outputs", frames, n)
		}
		if timeouts == 0 {
			if writes != want {
				t.Fatalf("%d outputs of %d bytes left in %d writes, want %d", n, pad, writes, want)
			}
			return
		}
		if writes > want+timeouts {
			t.Fatalf("%d writes with %d backstop firings, want at most %d", writes, timeouts, want+timeouts)
		}
		if race.Enabled {
			return
		}
		if round == 3 {
			t.Fatalf("the backstop fired in %d rounds of %d back-to-back outputs", round, n)
		}
	}
}

// TestCorkBackstopDuringSlowBody: a drainer that corked an output and then
// runs a 5 ms body does not uncork before the body returns; the backstop
// writes the output meanwhile. The body outlasts 5 ms until the frame is
// out (or a second has passed), so that a host that stalls the process
// past the backstop's 100 µs and the body's 5 ms alike cannot fail it.
func TestCorkBackstopDuringSlowBody(t *testing.T) {
	var before, during tcptransport.Stats
	var b *tcptransport.Node
	g, b := corkHeldLeaf(t, 0, func(*corkTok) {
		time.Sleep(5 * time.Millisecond)
		deadline := time.Now().Add(time.Second)
		for during = b.Stats(); during.FramesSent == before.FramesSent && time.Now().Before(deadline); during = b.Stats() {
			time.Sleep(100 * time.Microsecond)
		}
	})
	before = b.Stats()
	if _, err := callCork(t, g, &corkTok{N: 2}); err != nil {
		t.Fatal(err)
	}
	if sent, fired := during.FramesSent-before.FramesSent, during.CorkTimeouts-before.CorkTimeouts; sent != 1 || fired != 1 {
		t.Fatalf("before the slow body returned %d frames left with %d backstop firings, want part 0's output by one firing", sent, fired)
	}
}

// TestCorkIdleDrainerLeavesOthersBurst: drainers whose executions sent
// nothing over the wire do not uncork when they go idle, so a frame corked
// by someone else leaves by its own uncork or the backstop, not by theirs.
func TestCorkIdleDrainerLeavesOthersBurst(t *testing.T) {
	g, nodes := corkGraph(t, Config{}, "a*2", func(c *Ctx, in *corkTok, post func(*corkTok)) {
		for i := 0; i < in.N; i++ {
			post(&corkTok{N: i})
		}
	}, func(*corkTok) {})
	a := nodes[0]
	if err := a.Send("b", []byte{msgPing}); err != nil { // dial a→b
		t.Fatal(err)
	}
	for a.Stats().FramesSent == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	before := a.Stats()
	if err := a.SendCorked("b", []byte{msgPing}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // every hop is local to a
		if _, err := callCork(t, g, &corkTok{N: 4}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().FramesSent == before.FramesSent {
		if time.Now().After(deadline) {
			t.Fatal("the corked frame never left")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if after := a.Stats(); after.CorkTimeouts-before.CorkTimeouts != 1 || after.Writes-before.Writes != 1 {
		t.Fatalf("the corked frame left in %d writes with %d backstop firings: an idle drainer let it go", after.Writes-before.Writes, after.CorkTimeouts-before.CorkTimeouts)
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
