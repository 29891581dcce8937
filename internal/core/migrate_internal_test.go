package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core/place"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The partial-hold remap: the case TestRemapMidRun only reaches by luck of
// scheduling, and one core almost never. The placement flips while the old
// owner's hold keeps some — not all — of the sender's flow-control window,
// and the sender resumes posting the moment it sees the flip, so its direct
// tokens race the state envelope, the flushed hold and the closing fences
// to the new owner. Every token must still execute in posting order.

type holdOrder struct{ N int }
type holdTok struct{ Seq int }
type holdDone struct{ N int }

type holdState struct {
	NextSeq int
	Trail   []int // (got, want) of the first violations
}

var (
	_ = serial.MustRegister[holdOrder]()
	_ = serial.MustRegister[holdTok]()
	_ = serial.MustRegister[holdDone]()
	_ = serial.MustRegister[holdState]()
)

const (
	phWindow  = 64
	phTokens  = 400
	phBlockAt = 100 // the acc leaf parks in this token's body
	phHold    = 20  // tokens the old owner must be holding when the table flips
)

func TestRemapPartialHold(t *testing.T) {
	variants := []struct {
		name string
		mk   func(t *testing.T) (*App, error)
	}{
		{"local", func(t *testing.T) (*App, error) {
			return NewLocalApp(Config{Window: phWindow}, "node0", "node1", "node2")
		}},
		{"forceSerialize", func(t *testing.T) (*App, error) {
			return NewLocalApp(Config{Window: phWindow, ForceSerialize: true}, "node0", "node1", "node2")
		}},
		{"simnet", func(t *testing.T) (*App, error) {
			net := simnet.New(simnet.GigabitEthernet())
			t.Cleanup(net.Close)
			trs, err := transport.SimNodes(net, "node0", "node1", "node2")
			if err != nil {
				return nil, err
			}
			return NewAppOn(Config{Window: phWindow}, trs...)
		}},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			app, err := variant.mk(t)
			if err != nil {
				t.Fatal(err)
			}
			defer app.Close()
			remapWithPartialHold(t, app)
		})
	}
}

// TestTraceAcrossRemap migrates the stateful stage mid-call and requires the
// call's single trace to record the hop: forward spans on the old node,
// execute spans on both owners, and the ordinary endpoints (post, result).
func TestTraceAcrossRemap(t *testing.T) {
	app, err := NewLocalApp(Config{Window: phWindow, TraceSample: 1, ForceSerialize: true}, "node0", "node1", "node2")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	remapWithPartialHold(t, app)

	spans := app.TraceSpans(0)
	kinds, execNodes := spanKinds(spans), make(map[string]bool)
	for _, s := range spans {
		if s.Trace != spans[0].Trace {
			t.Fatalf("one call left spans of traces %d and %d", spans[0].Trace, s.Trace)
		}
		if s.Kind == "execute" {
			execNodes[s.Node] = true
		}
	}
	for _, want := range []string{"post", "forward", "result"} {
		if !kinds[want] {
			t.Errorf("migrated timeline missing %q span; got %v", want, kinds)
		}
	}
	if !execNodes["node1"] || !execNodes["node2"] {
		t.Errorf("execute spans on %v: the timeline never crossed the migration", execNodes)
	}
}

// remapWithPartialHold streams phTokens sequenced tokens from node0 through
// a stateful thread on node1 and remaps that thread to node2 so that the
// flip finds phHold tokens in the old owner's hold and the sender about to
// resume; it fails the test unless every token executed in posting order.
func remapWithPartialHold(t *testing.T, app *App) {
	const window, tokens, blockAt, hold = phWindow, phTokens, phBlockAt, phHold
	main := MustCollection[struct{}](app, "ph-main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	acc := MustCollection[holdState](app, "ph-acc")
	if err := acc.Map("node1"); err != nil {
		t.Fatal(err)
	}
	old, _ := app.runtime("node1")
	th := old.placeThread(place.Key{Collection: "ph-acc"})

	parked := make(chan struct{})  // the leaf is inside token blockAt
	release := make(chan struct{}) // lets it return
	held := make(chan int, 1)      // what the hold kept when the sender stopped to watch for the flip
	split := Split[*holdOrder, *holdTok]("ph-split", func(c *Ctx, in *holdOrder, post func(*holdTok)) {
		i := 0
		for ; i <= blockAt; i++ {
			post(&holdTok{Seq: i})
		}
		<-parked
		// The remap has been started: once the old owner routes
		// arrivals through its placement machine, feed the hold.
		for old.place.active.Load() == 0 {
			runtime.Gosched()
		}
		for ; th.HeldLen() < hold && i < blockAt+window/2; i++ {
			post(&holdTok{Seq: i})
			for deadline := time.Now().Add(time.Second); th.HeldLen() == 0 && time.Now().Before(deadline); {
				runtime.Gosched() // simnet: the token is still on the modelled wire
			}
		}
		held <- th.HeldLen()
		close(release)
		for node, _ := acc.NodeOf(0); node == "node1"; node, _ = acc.NodeOf(0) {
			runtime.Gosched()
		}
		for ; i < in.N; i++ {
			post(&holdTok{Seq: i})
		}
	})
	leaf := Leaf[*holdTok, *holdTok]("ph-acc", func(c *Ctx, in *holdTok) *holdTok {
		st := StateOf[holdState](c)
		if in.Seq != st.NextSeq && len(st.Trail) < 16 {
			st.Trail = append(st.Trail, in.Seq, st.NextSeq)
		}
		st.NextSeq = in.Seq + 1
		if in.Seq == blockAt {
			close(parked)
			<-release
		}
		return in
	})
	merge := Merge[*holdTok, *holdDone]("ph-merge", func(c *Ctx, first *holdTok, next func() (*holdTok, bool)) *holdDone {
		n := 0
		for _, ok := first, true; ok; _, ok = next() {
			n++
		}
		return &holdDone{N: n}
	})
	g, err := app.NewFlowgraph("ph", Path(
		NewNode(split, main, MainRoute()),
		NewNode(leaf, acc, MainRoute()),
		NewNode(merge, main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	remapped := make(chan error, 1)
	go func() {
		<-parked
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		remapped <- acc.Remap(ctx, "node2")
	}()
	out, err := g.Call(context.Background(), &holdOrder{N: tokens})
	if err != nil {
		t.Fatalf("call failed across the remap: %v", err)
	}
	if err := <-remapped; err != nil {
		t.Fatalf("remap: %v", err)
	}
	if got := out.(*holdDone).N; got != tokens {
		t.Fatalf("merge saw %d tokens, want %d", got, tokens)
	}
	kept := <-held
	if kept == 0 || kept >= window {
		t.Fatalf("the hold kept %d tokens at the flip; the test needs a partly filled hold (0 < held < %d)", kept, window)
	}
	now, _ := app.runtime("node2")
	accTC, _ := app.Collection("ph-acc")
	inst := now.lookupInstance(instKey{coll: accTC.id})
	if inst == nil {
		t.Fatal("no instance on node2 after the remap")
	}
	inst.exec.Lock()
	st := *inst.state.(*holdState)
	inst.exec.Unlock()
	if len(st.Trail) != 0 || st.NextSeq != tokens {
		t.Fatalf("FIFO broken with %d tokens held at the flip: first (got, want) pairs %v, cursor %d of %d; forwarded %d",
			kept, st.Trail, st.NextSeq, tokens, app.Stats().TokensForwarded)
	}
	if fwd := app.Stats().TokensForwarded; fwd < int64(kept) {
		t.Fatalf("TokensForwarded = %d with %d tokens held", fwd, kept)
	}
}

type retargetTok struct {
	Tag string
	N   int
}

type retargetState struct{ N int }

var (
	_ = serial.MustRegister[retargetTok]()
	_ = serial.MustRegister[retargetState]()
)

// TestRetargetAfterFailover: a live remap w1 → w2 leaves w1 forwarding the
// thread's stale traffic to w2. When w2 then fails over, w1's relay must
// follow the thread to the survivor the failover chose, and a token
// forwarded through it must execute there exactly once.
func TestRetargetAfterFailover(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: 100 * time.Microsecond, PerMessage: 10 * time.Microsecond})
	trs, err := transport.SimNodes(net, "m", "w1", "w2")
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewAppOn(Config{Checkpoint: 2 * time.Millisecond}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	t.Cleanup(app.Close)
	work := MustCollection[retargetState](app, "rt-work")
	if err := work.Map("w1"); err != nil {
		t.Fatal(err)
	}
	ran := make(chan string, 16) // tag@node of every tagged execution
	leaf := Leaf[*retargetTok, *retargetTok]("rt-leaf", func(c *Ctx, in *retargetTok) *retargetTok {
		st := StateOf[retargetState](c)
		st.N++
		if in.Tag != "" {
			ran <- in.Tag + "@" + c.rt.name
		}
		return &retargetTok{N: st.N}
	})
	g, err := app.NewFlowgraph("rt-g", Path(NewNode(leaf, work, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	call := func() int {
		t.Helper()
		out, err := g.Call(context.Background(), &retargetTok{})
		if err != nil {
			t.Fatal(err)
		}
		return out.(*retargetTok).N
	}

	if n := call(); n != 1 {
		t.Fatalf("first call saw N=%d, want 1", n)
	}
	if err := work.RemapThread(context.Background(), 0, "w2"); err != nil {
		t.Fatal(err)
	}
	if err := app.FailNode("w2"); err != nil {
		t.Fatal(err)
	}
	survivor, _ := work.NodeOf(0)
	if survivor == "w2" {
		t.Fatal("the failover left the thread on the dead node")
	}
	relay, _ := app.runtime("w1")
	th := relay.placeThread(place.Key{Collection: "rt-work"})
	if v, target := th.Arrive("probe", place.Forwarded, nil); v != place.Forward || target != survivor {
		t.Fatalf("w1's machine decides %v toward %q, want Forward toward the survivor %q", v, target, survivor)
	}

	// A stale post reaches the relay as if its sender still resolved w1.
	env := getEnvelope()
	env.Graph, _ = app.Graph("rt-g")
	env.CallOrigin, _ = app.runtime("m")
	env.Token = &retargetTok{Tag: "stale"}
	relay.deliverToken(env, "m", place.Direct)
	if got := <-ran; got != "stale@"+survivor {
		t.Fatalf("forwarded token ran as %s, want stale@%s", got, survivor)
	}
	if n := call(); n != 3 {
		t.Fatalf("state counted %d executions, want 3: first call, forwarded token, this call", n)
	}
	select {
	case extra := <-ran:
		t.Fatalf("the forwarded token ran again: %s", extra)
	default:
	}
	if err := app.Err(); err != nil {
		t.Fatal(err)
	}
}
