package kernel

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
)

// callWithin is core.Flowgraph.CallFrom under a context.WithTimeout of d.
func callWithin(g *core.Flowgraph, origin string, tok core.Token, d time.Duration) (core.Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

func startNS(t *testing.T) *NameServer {
	t.Helper()
	ns, err := StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ns.Close() })
	return ns
}

func TestNameServerRegisterLookup(t *testing.T) {
	ns := startNS(t)
	if err := RegisterName(ns.Addr(), "k1", "1.2.3.4:5"); err != nil {
		t.Fatal(err)
	}
	addr, err := LookupName(ns.Addr(), "k1")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "1.2.3.4:5" {
		t.Fatalf("got %q", addr)
	}
	if _, err := LookupName(ns.Addr(), "ghost"); err == nil {
		t.Fatal("expected lookup failure")
	}
	all, err := ListNames(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if all["k1"] != "1.2.3.4:5" {
		t.Fatalf("list: %v", all)
	}
	if err := UnregisterName(ns.Addr(), "k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupName(ns.Addr(), "k1"); err == nil {
		t.Fatal("expected lookup failure after DEL")
	}
}

func startKernel(t *testing.T, ns *NameServer, name string) *Kernel {
	t.Helper()
	k, err := Start(name, "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = k.Close() })
	return k
}

func TestKernelTransportExchange(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	k2 := startKernel(t, ns, "kB")

	t1 := k1.Transport("app")
	t2 := k2.Transport("app")
	got := make(chan string, 1)
	t2.SetHandler(func(src string, payload []byte) { got <- src + ":" + string(payload) })
	t1.SetHandler(func(src string, payload []byte) {})
	if err := t1.Send("kB", []byte("hello kernels")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "kA:hello kernels" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestKernelMultiplexesApps(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	k2 := startKernel(t, ns, "kB")

	a1, b1 := k1.Transport("app1"), k1.Transport("app2")
	a2, b2 := k2.Transport("app1"), k2.Transport("app2")
	gotA := make(chan string, 1)
	gotB := make(chan string, 1)
	a2.SetHandler(func(src string, p []byte) { gotA <- string(p) })
	b2.SetHandler(func(src string, p []byte) { gotB <- string(p) })
	a1.SetHandler(func(string, []byte) {})
	b1.SetHandler(func(string, []byte) {})

	if err := a1.Send("kB", []byte("for app1")); err != nil {
		t.Fatal(err)
	}
	if err := b1.Send("kB", []byte("for app2")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotA:
		if m != "for app1" {
			t.Fatalf("app1 got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout app1")
	}
	select {
	case m := <-gotB:
		if m != "for app2" {
			t.Fatalf("app2 got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout app2")
	}
}

func TestLazyApplicationLaunch(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	k2 := startKernel(t, ns, "kB")

	var launches atomic.Int32
	received := make(chan string, 8)
	k2.RegisterApp("lazy", func(k *Kernel) error {
		launches.Add(1)
		tr := k.Transport("lazy")
		tr.SetHandler(func(src string, p []byte) { received <- string(p) })
		return nil
	})
	if k2.Launched("lazy") {
		t.Fatal("app reported launched before any message")
	}

	sender := k1.Transport("lazy")
	sender.SetHandler(func(string, []byte) {})
	for i := 0; i < 3; i++ {
		if err := sender.Send("kB", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case m := <-received:
			if !strings.HasPrefix(m, "m") {
				t.Fatalf("got %q", m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for message %d", i)
		}
	}
	if got := launches.Load(); got != 1 {
		t.Fatalf("factory ran %d times, want 1", got)
	}
	if !k2.Launched("lazy") {
		t.Fatal("app not reported launched")
	}
}

// DPS application tokens for the end-to-end kernel test.
type kReq struct {
	Text string
}

type kRes struct {
	Text string
}

var (
	_ = serial.MustRegister[kReq]()
	_ = serial.MustRegister[kRes]()
)

// TestDPSAppOverKernels runs a real DPS flow graph whose nodes are two
// kernels communicating over genuine TCP sockets resolved via the name
// server.
func TestDPSAppOverKernels(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kern0")
	k2 := startKernel(t, ns, "kern1")

	app := core.NewApp(core.Config{})
	defer app.Close()
	if _, err := app.AttachTransport(k1.Transport("upper")); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AttachTransport(k2.Transport("upper")); err != nil {
		t.Fatal(err)
	}

	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[struct{}](app, "workers")
	if err := main.Map("kern0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("kern1*2"); err != nil {
		t.Fatal(err)
	}

	split := core.Split[*kReq, *kReq]("ksplit",
		func(c *core.Ctx, in *kReq, post func(*kReq)) {
			for _, word := range strings.Fields(in.Text) {
				post(&kReq{Text: word})
			}
		})
	upper := core.Leaf[*kReq, *kRes]("kupper",
		func(c *core.Ctx, in *kReq) *kRes { return &kRes{Text: strings.ToUpper(in.Text)} })
	join := core.Merge[*kRes, *kRes]("kjoin",
		func(c *core.Ctx, first *kRes, next func() (*kRes, bool)) *kRes {
			words := []string{}
			for in, ok := first, true; ok; in, ok = next() {
				words = append(words, in.Text)
			}
			return &kRes{Text: fmt.Sprint(len(words))}
		})
	g, err := app.NewFlowgraph("kupper", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(upper, workers, core.RoundRobin()),
		core.NewNode(join, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &kReq{Text: "tokens over real tcp kernels"}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*kRes).Text; got != "5" {
		t.Fatalf("got %q words", got)
	}
}

// TestCorkedSplitOverKernels: the kernel's application port forwards the
// engine's corks to the kernel node, so a width-8 split's parts bound for
// the other kernel leave in one write, plus one per backstop firing.
func TestCorkedSplitOverKernels(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kern0")
	k2 := startKernel(t, ns, "kern1")

	app := core.NewApp(core.Config{})
	defer app.Close()
	for _, k := range []*Kernel{k1, k2} {
		if _, err := app.AttachTransport(k.Transport("fan")); err != nil {
			t.Fatal(err)
		}
	}
	main := core.MustCollection[struct{}](app, "main")
	workers := core.MustCollection[struct{}](app, "workers")
	if err := main.Map("kern0"); err != nil {
		t.Fatal(err)
	}
	if err := workers.Map("kern1*4"); err != nil {
		t.Fatal(err)
	}
	const width, dests, calls = 8, 1, 10
	split := core.Split[*kReq, *kReq]("fan", func(c *core.Ctx, in *kReq, post func(*kReq)) {
		for i := 0; i < width; i++ {
			post(&kReq{Text: in.Text})
		}
	})
	leaf := core.Leaf[*kReq, *kRes]("part", func(c *core.Ctx, in *kReq) *kRes { return &kRes{Text: c.Node()} })
	join := core.Merge[*kRes, *kRes]("count", func(c *core.Ctx, first *kRes, next func() (*kRes, bool)) *kRes {
		n := 0
		for ok := true; ok; _, ok = next() {
			n++
		}
		return &kRes{Text: fmt.Sprint(n)}
	})
	g, err := app.NewFlowgraph("fan", core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(leaf, workers, core.RoundRobin()),
		core.NewNode(join, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		out, err := callWithin(g, "kern0", &kReq{Text: "part"}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(*kRes).Text; got != fmt.Sprint(width) {
			t.Fatalf("merge counted %s parts, want %d", got, width)
		}
	}
	call() // dials kern0→kern1
	var writes, corked, timeouts int64
	for i := 0; i < calls; i++ {
		before := k1.node.Stats()
		call()
		after := k1.node.Stats()
		writes += after.Writes - before.Writes
		corked += after.FramesCorked - before.FramesCorked
		timeouts += after.CorkTimeouts - before.CorkTimeouts
	}
	t.Logf("%d calls: %d writes, %d frames corked, %d backstop firings", calls, writes, corked, timeouts)
	if width*calls-corked > width*timeouts { // a firing can uncork the rest of a burst
		t.Fatalf("%d of %d parts corked on kern0 with %d backstop firings", corked, width*calls, timeouts)
	}
	if writes > dests*calls+timeouts {
		t.Fatalf("%d writes for %d calls with %d backstop firings: want at most %d per call plus one per firing", writes, calls, timeouts, dests)
	}
}

func TestServiceRegistry(t *testing.T) {
	app, err := core.NewLocalApp(core.Config{}, "n0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("n0"); err != nil {
		t.Fatal(err)
	}
	leaf := core.Leaf[*kReq, *kRes]("echo",
		func(c *core.Ctx, in *kReq) *kRes { return &kRes{Text: in.Text + "!"} })
	g, err := app.NewFlowgraph("echo", core.Path(core.NewNode(leaf, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}

	reg := NewServiceRegistry()
	if err := reg.Expose("echo-service", g); err != nil {
		t.Fatal(err)
	}
	if err := reg.Expose("echo-service", g); err == nil {
		t.Fatal("expected duplicate expose error")
	}
	out, err := reg.Call(context.Background(), "echo-service", &kReq{Text: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*kRes).Text; got != "ping!" {
		t.Fatalf("got %q", got)
	}
	if _, err := reg.Call(context.Background(), "nope", &kReq{}); err == nil {
		t.Fatal("expected unknown service error")
	}
	if op, err := ServiceCallOp(reg, "call-echo", "echo-service"); err != nil || op == nil {
		t.Fatalf("ServiceCallOp: %v", err)
	}
	if _, err := ServiceCallOp(reg, "x", "nope"); err == nil {
		t.Fatal("expected unknown service error")
	}
	if n := reg.Names(); len(n) != 1 || n[0] != "echo-service" {
		t.Fatalf("Names = %v", n)
	}
	reg.Withdraw("echo-service")
	if _, ok := reg.Lookup("echo-service"); ok {
		t.Fatal("service not withdrawn")
	}
}

// TestRemapControlMessage drives a live remap over the kernel control
// plane: a client kernel-less process sends a RemapRequest through the
// name server, and the serving kernel's handler migrates the collection
// while the application keeps answering calls.
func TestRemapControlMessage(t *testing.T) {
	ns, err := StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ns.Close() }()
	k1, err := Start("ctl0", "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = k1.Close() }()
	k2, err := Start("ctl1", "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = k2.Close() }()

	app := core.NewApp(core.Config{})
	defer app.Close()
	if _, err := app.AttachTransport(k1.Transport("ctlapp")); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AttachTransport(k2.Transport("ctlapp")); err != nil {
		t.Fatal(err)
	}
	work := core.MustCollection[struct{}](app, "ctl-work")
	if err := work.Map("ctl0"); err != nil {
		t.Fatal(err)
	}
	echo := core.Leaf[*kReq, *kReq]("ctl-echo",
		func(c *core.Ctx, in *kReq) *kReq { return in })
	g, err := app.NewFlowgraph("ctl-echo", core.Path(core.NewNode(echo, work, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}

	remapped := make(chan error, 1)
	k1.OnRemap(func(req RemapRequest) error {
		if req.App != "ctlapp" {
			remapped <- fmt.Errorf("unexpected app %q", req.App)
			return nil
		}
		tc, ok := app.Collection(req.Collection)
		if !ok {
			remapped <- fmt.Errorf("unknown collection %q", req.Collection)
			return nil
		}
		err := tc.Remap(context.Background(), req.Spec)
		remapped <- err
		return err
	})

	if _, err := g.Call(context.Background(), &kReq{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := SendRemap(ns.Addr(), "ctl0", RemapRequest{App: "ctlapp", Collection: "ctl-work", Spec: "ctl1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-remapped:
		if err != nil {
			t.Fatalf("remap handler: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remap control message never arrived")
	}
	if got, _ := work.NodeOf(0); got != "ctl1" {
		t.Fatalf("collection on %q after control remap", got)
	}
	if _, err := g.Call(context.Background(), &kReq{Text: "y"}); err != nil {
		t.Fatalf("call after control remap: %v", err)
	}
}

func TestPingBackoffDoublesAndCaps(t *testing.T) {
	// 1 -> 2 -> 4, capped at misses-1 so a silent peer is always probed
	// again before the misses*interval death deadline.
	b := 0
	var got []int
	for i := 0; i < 5; i++ {
		b = nextPingBackoff(b, 5)
		got = append(got, b)
	}
	want := []int{1, 2, 4, 4, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoff sequence %v, want %v", got, want)
		}
	}
	// Degenerate configs still probe every other round at worst.
	if nextPingBackoff(0, 1) != 1 || nextPingBackoff(8, 1) != 1 {
		t.Fatalf("misses=1 must cap backoff at 1")
	}
}

func TestHeartbeatJitterBounded(t *testing.T) {
	const interval = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := heartbeatJitter(interval)
		if d < 0 || d >= interval/4 {
			t.Fatalf("jitter %v outside [0, %v)", d, interval/4)
		}
	}
	if heartbeatJitter(0) != 0 {
		t.Fatalf("zero interval must yield zero jitter")
	}
}

// TestDemuxAllocatesNothing: routing a received frame to an attached
// application looks its name up as bytes and lends the payload where it
// lies, allocating nothing, whether or not the application lends the
// buffers of its own frames (transport.Borrower).
func TestDemuxAllocatesNothing(t *testing.T) {
	ns := startNS(t)
	k := startKernel(t, ns, "kA")
	k.Transport("raw").SetHandler(func(string, []byte) {})
	lending := k.Transport("lending").(*appPort)
	lent := make([]byte, 0, 64)
	lending.SetRelease(func([]byte) {})
	lending.SetBorrow(func(int) []byte { return lent[:0] })
	lending.SetHandler(func(string, []byte) {})
	for _, app := range []string{"raw", "lending"} {
		frame := makeAppFrame(nil, app, []byte("a payload"))
		if n := testing.AllocsPerRun(100, func() { k.demux("kB", frame) }); n != 0 {
			t.Errorf("demuxing a frame for %s allocates %.0f objects, want 0", app, n)
		}
	}
}
