package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestIDTableNoPerTokenMutex: once a first call has created the instances
// and credit trackers, a token is received, routed and executed, and its
// call completes, while the test holds the App-wide mutex and every
// runtime's. The token enters node a's link as a frame from b, so its header
// is decoded and resolved there; its split posts over the simulated network
// to leaves on b and c and its merge on a answers the call. A call started
// meanwhile completes too: starting one takes neither mutex either.
func TestIDTableNoPerTokenMutex(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 1e9, Latency: 10 * time.Microsecond, TimeScale: 1})
	defer net.Close()
	trs, err := transport.SimNodes(net, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	reg := serial.NewRegistry()
	if err := serial.Register[hopTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewAppOn(Config{Registry: reg}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	g := hopGraph(t, app, 2, 2)
	if _, err := callWithin(g, "a", &hopTok{}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	a, _ := app.runtime("a")
	id, ce, err := app.registerCall(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	env := getEnvelope()
	env.Graph, env.Node, env.CallID, env.CallOrigin = g, g.entry, id, a
	env.LastWorker, env.CreditNode, env.Token = -1, -1, &hopTok{}
	frame, err := a.lnk.tokenFrame(env, place.Direct)
	putEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}

	rts := app.allRuntimes()
	app.mu.Lock()
	for _, rt := range rts {
		rt.mu.Lock()
	}
	// Neither may block the test if it locks: each runs on a goroutine of
	// its own, the second a call started as a caller starts one.
	received, called := make(chan error, 1), make(chan error, 1)
	go func(frame []byte) {
		a.lnk.handle("b", frame) // takes the frame over
		received <- (<-ce.ch).Err
	}(frame)
	go func() {
		_, cerr := callWithin(g, "a", &hopTok{}, 10*time.Second)
		called <- cerr
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wait := func(ch <-chan error) error {
		select {
		case err := <-ch:
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	recvErr, callErr := wait(received), wait(called)
	for _, rt := range rts {
		rt.mu.Unlock()
	}
	app.mu.Unlock()
	if recvErr != nil || callErr != nil {
		t.Fatalf("under the App's and the runtimes' mutexes: received token %v, call %v (app error %v)", recvErr, callErr, app.Err())
	}
}

// TestIDTableRefusesCollision: a name whose id an earlier name holds — a
// node, collection or graph, whatever the earlier one is — is refused where
// it is declared, and the earlier name keeps resolving.
func TestIDTableRefusesCollision(t *testing.T) {
	const a, tc, g = 1 << ft.ThreadBits, 2 << ft.ThreadBits, 3 << ft.ThreadBits
	byName := map[string]uint64{"a": a, "b": a, "tc": tc, "tc2": a, "g": g, "g2": tc}
	app := NewApp(Config{})
	defer app.Close()
	app.idHook = func(_ byte, name string) uint64 { return byName[name] }
	fabric := transport.NewInproc()
	defer fabric.Close()
	attach := func(name string) error {
		n, err := fabric.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = app.AttachTransport(n)
		return err
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "has the id of an earlier name") {
			t.Errorf("%s: error %v, want the id collision refused", what, err)
		}
	}
	if err := attach("a"); err != nil {
		t.Fatal(err)
	}
	refused("node b", attach("b"))
	if app.hasNode("b") {
		t.Error("the refused node b was attached")
	}
	work, err := NewCollection[struct{}](app, "tc")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCollection[struct{}](app, "tc2")
	refused("collection tc2", err)
	if err := work.Map("a"); err != nil {
		t.Fatal(err)
	}
	node := func() *GraphNode {
		return NewNode(Leaf[*hopTok, *hopTok]("echo", func(_ *Ctx, in *hopTok) *hopTok { return in }), work, MainRoute())
	}
	if _, err := app.NewFlowgraph("g", Path(node())); err != nil {
		t.Fatal(err)
	}
	_, err = app.NewFlowgraph("g2", Path(node()))
	refused("graph g2", err)
	if _, ok := app.Graph("g2"); ok {
		t.Error("the refused graph g2 was registered")
	}
	ids := app.ids.load()
	if len(ids) != 3 || ids[a].rt == nil || ids[a].rt.name != "a" || ids[tc].tc != work || ids[g].g == nil || ids[g].g.name != "g" {
		t.Errorf("id table %v, want node a, collection tc and graph g under their ids", ids)
	}
}

type (
	remapOrder struct{ N int }
	remapTok   struct{ I int }
	remapDone  struct{ N int }
	remapCount struct{ N int }
)

var (
	_ = serial.MustRegister[remapOrder]()
	_ = serial.MustRegister[remapTok]()
	_ = serial.MustRegister[remapDone]()
	_ = serial.MustRegister[remapCount]()
)

// TestIDTableRemapRepublishes moves a stateful thread between two nodes
// while calls stream tokens through it and a reader walks every runtime's
// instance table without a lock: each flip retires the instance from one
// table and installs it into another, republishing both. Every call must
// see all its tokens, the moved state must have counted every token once,
// and in the end the thread is in its owner's table and in no other.
func TestIDTableRemapRepublishes(t *testing.T) {
	const callers, tokens, flips = 2, 40, 4
	app, err := NewLocalApp(Config{Window: 8}, "n0", "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	main := MustCollection[struct{}](app, "rr-main")
	acc := MustCollection[remapCount](app, "rr-acc")
	if err := main.Map("n0"); err != nil {
		t.Fatal(err)
	}
	if err := acc.Map("n1"); err != nil {
		t.Fatal(err)
	}
	split := Split[*remapOrder, *remapTok]("rr-split", func(_ *Ctx, in *remapOrder, post func(*remapTok)) {
		for i := 0; i < in.N; i++ {
			post(&remapTok{I: i})
		}
	})
	count := Leaf[*remapTok, *remapTok]("rr-count", func(c *Ctx, in *remapTok) *remapTok {
		StateOf[remapCount](c).N++
		return in
	})
	merge := Merge[*remapTok, *remapDone]("rr-merge", func(_ *Ctx, first *remapTok, next func() (*remapTok, bool)) *remapDone {
		n := 1
		for _, ok := next(); ok; _, ok = next() {
			n++
		}
		return &remapDone{N: n}
	})
	g, err := app.NewFlowgraph("rr", Path(NewNode(split, main, MainRoute()), NewNode(count, acc, MainRoute()), NewNode(merge, main, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}

	stop, flipped := make(chan struct{}), make(chan struct{})
	var reads, calls, flowing atomic.Int64
	var readers, wg sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			for _, rt := range app.allRuntimes() {
				if inst := rt.lookupInstance(instKey{coll: acc.id}); inst != nil && inst.tc != acc {
					t.Error("the table holds a foreign instance under acc's id")
				}
				for k, inst := range rt.threads.load() {
					if k != (instKey{coll: inst.tc.id, index: inst.index}) {
						t.Errorf("instance %s[%d] filed under %+v", inst.tc.name, inst.index, k)
					}
				}
			}
			reads.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Callers call until the last flip is done, then once more.
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-flipped:
					done = true
				default:
				}
				flowing.Add(1)
				out, err := callWithin(g, "n0", &remapOrder{N: tokens}, 20*time.Second)
				flowing.Add(-1)
				if err != nil {
					errs <- err
					return
				}
				if n := out.(*remapDone).N; n != tokens {
					t.Errorf("a call saw %d tokens, want %d", n, tokens)
				}
				calls.Add(1)
			}
		}()
	}
	for i := 0; i < flips; i++ {
		for calls.Load() < int64(i+1)*callers || flowing.Load() == 0 {
			time.Sleep(100 * time.Microsecond) // let tokens flow before each flip
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err := acc.RemapThread(ctx, 0, []string{"n2", "n1"}[i%2])
		cancel()
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	close(flipped)
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	owner, _ := acc.NodeOf(0)
	for _, rt := range app.allRuntimes() {
		inst := rt.lookupInstance(instKey{coll: acc.id})
		if (inst != nil) != (rt.name == owner) {
			t.Fatalf("%s's table holds the instance: %v; its owner is %s", rt.name, inst != nil, owner)
		}
		if inst != nil {
			inst.exec.Lock()
			n := inst.state.(*remapCount).N
			inst.exec.Unlock()
			if want := int(calls.Load()) * tokens; n != want {
				t.Fatalf("the moved state counted %d tokens, want %d", n, want)
			}
		}
	}
	if got := app.Stats().MigrationsCompleted; got != flips {
		t.Fatalf("MigrationsCompleted = %d, want %d", got, flips)
	}
	if reads.Load() < 2 {
		t.Fatalf("the reader walked the tables %d times, want it to run while the thread moved", reads.Load())
	}
}

// FuzzDecodeEnvelope holds the decoders of tokens, group-ends, acks,
// fences, cuts and death notices to their encoders. The input is a frame,
// its first byte a kind with any flags; it is decoded only when kindOf
// accepts that byte, as link.handle decodes it (TestKindFlags holds kindOf
// to the flags each kind accepts). No input panics a decoder or buys a
// frame stack its bytes could not encode; an id the table does not hold is
// an error, so with an empty table every token and group-end is refused;
// and every accepted message re-encodes to exactly its input, its flags and
// their fields included.
func FuzzDecodeEnvelope(f *testing.F) {
	ids := idTable{}
	g := testGraph(ids, "ring")
	n0, n1 := testNode(ids, "n0"), testNode(ids, "n1")
	stream := ft.Stream{Sender: 1<<40 | 3, In: 7}
	for _, lane := range []place.Lane{place.Direct, place.Forwarded} {
		for _, seq := range []uint64{0, 300} {
			for _, traceID := range []uint64{0, 1 << 50} {
				for frames := 0; frames <= inlineFrames+1; frames++ {
					e := &envelope{Graph: g, Node: 2, Thread: 1, CallID: 1 << 60, CallOrigin: n0, LastWorker: -1, CreditNode: 1,
						FTStream: stream, FTSeq: seq, TraceID: traceID}
					fs := e.newFrames(frames)
					for i := range fs {
						fs[i] = frame{GroupID: 1<<48 | uint64(i), Index: 4999, Origin: n1, MergeThread: i}
					}
					f.Add(append(appendToken(nil, e, lane, -12345), "payload"...))
				}
			}
			f.Add(appendGroupEnd(nil, &groupEndMsg{Graph: g, Node: 3, Thread: 1, GroupID: 7, Total: 5000, CallID: 1 << 60, FTStream: stream, FTSeq: seq}, lane))
		}
	}
	f.Add(appendAck(nil, ackMsg{GroupID: 1 << 48, Worker: -1, RouteNode: 1}))
	f.Add(appendFence(nil, &fenceMsg{Collection: "c", Thread: 3, Epoch: 9, Src: "n0", Phase: fenceClose}))
	f.Add(appendCut(nil, cutMsg{Stream: stream, DstCollection: "c", DstThread: 2, Seq: 300}))
	f.Add(appendDeath(nil, deathMsg{Node: "n1"}))
	// A flag the kind refuses, and a flagged field that is zero.
	f.Add(append([]byte{msgGroupEnd | flagTraced, 1, 0}, encodeGroupEnd(&groupEndMsg{Graph: g})[1:]...))
	f.Add(append([]byte{msgAck | flagForwarded}, encodeAck(ackMsg{GroupID: 1})[1:]...))
	f.Add(append(appendFTStamp([]byte{msgToken | flagStamped}, stream, 0), encodeEnvelopeHeader(&envelope{Graph: g, CallOrigin: n0})[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || kindOf(b[0]) == nil {
			return
		}
		body, lane := b[1:], laneOf(b[0])
		var again []byte
		switch b[0] & kindMask {
		case msgToken:
			if e, _, err := decodeToken(b, idTable{}); err == nil {
				putEnvelope(e)
				t.Fatal("a token header decoded against an empty id table")
			}
			e, sentNs, err := decodeToken(b, ids)
			if err != nil {
				return
			}
			defer putEnvelope(e)
			if n := cap(e.frames()); n > inlineFrames && n > len(body)/minFrameLen {
				t.Fatalf("%d bytes bought a stack of %d frames", len(body), n)
			}
			again = append(appendToken(nil, e, lane, sentNs), e.Payload...)
		case msgGroupEnd:
			if _, err := decodeGroupEnd(b, idTable{}); err == nil {
				t.Fatal("a group-end decoded against an empty id table")
			}
			m, err := decodeGroupEnd(b, ids)
			if err != nil {
				return
			}
			again = appendGroupEnd(nil, m, lane)
		case msgAck:
			m, err := decodeAck(body)
			if err != nil {
				return
			}
			again = appendAck(nil, m)
		case msgFence:
			m, err := decodeFence(body)
			if err != nil {
				return
			}
			again = appendFence(nil, m)
		case msgCut:
			m, err := decodeCut(body)
			if err != nil {
				return
			}
			again = appendCut(nil, m)
		case msgDeath:
			m, err := decodeDeath(body)
			if err != nil {
				return
			}
			again = appendDeath(nil, m)
		default:
			return
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("kind %d re-encodes as % x, was % x", b[0], again, b)
		}
	})
}
