package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/serial"
	"repro/internal/trace"
	"repro/internal/transport"
)

// reservedWireKinds are the frozen numbers no longer sent: the batch frame,
// and the sequenced, traced and forwarded framings that are flags now.
var reservedWireKinds = []byte{msgTokenFT, msgGroupEndFT, msgBatch, msgTraced, msgForwarded}

// TestWireKindTable checks the declaration the link layer is driven by:
// every kind constant (frozenWireKinds is held complete against wire.go by
// the freeze tests) but the reserved ones has a complete row, and a byte
// without a row — each reserved kind's included — is rejected.
func TestWireKindTable(t *testing.T) {
	for name, kind := range frozenWireKinds {
		k := wireKinds[kind]
		if slices.Contains(reservedWireKinds, kind) {
			if k.recv != nil || k.fail != 0 {
				t.Errorf("%s is reserved: it has a row %+v, want none", name, k)
			}
			continue
		}
		if k.name == "" || k.recv == nil || k.span == 0 || (k.fail == 0) != (kind == msgPing) {
			t.Errorf("%s: incomplete row %+v (name, recv, span and, for every kind the link sends, fail are mandatory)", name, k)
		}
		if (k.span == spanNone) != (k.why != "") {
			t.Errorf("%s: a row gives a reason exactly when it records no span (span %d, why %q)", name, k.span, k.why)
		}
	}
	known := make(map[byte]bool)
	for _, kind := range frozenWireKinds {
		known[kind] = true
	}
	for kind := 0; kind < len(wireKinds); kind++ {
		if !known[byte(kind)] && wireKinds[kind].recv != nil {
			t.Errorf("kind byte %d has a row but no msg* constant", kind)
		}
	}
	for _, kind := range append(slices.Clone(reservedWireKinds), 200) {
		l, _, app := newRecordedLink(t, Config{})
		l.handle("far", []byte{kind, 1, 0})
		if err := app.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown message kind %d", kind)) {
			t.Errorf("frame of kind %d: app error %v, want unknown message kind", kind, err)
		}
	}
}

// TestKindFlags holds the flags column to the framings: a token accepts
// every flag, a group-end the stamp and the forwarded lane, any other kind
// none. kindOf accepts exactly those bytes, and link.handle refuses every
// other byte of a kind with a row as an unknown kind, naming the whole byte.
func TestKindFlags(t *testing.T) {
	accepts := map[byte]byte{msgToken: flagStamped | flagTraced | flagForwarded, msgGroupEnd: flagStamped | flagForwarded}
	for b := 0; b < 256; b++ {
		kind, flags := byte(b)&kindMask, byte(b)&^kindMask
		rowed := wireKinds[kind].recv != nil
		want := rowed && flags&^accepts[kind] == 0
		if got := kindOf(byte(b)) != nil; got != want {
			t.Errorf("kindOf(%#x) accepts it: %v, want %v", b, got, want)
		}
		if rowed && !want {
			l, _, app := newRecordedLink(t, Config{})
			l.handle("far", []byte{byte(b), 1, 0})
			if err := app.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown message kind %d ", b)) {
				t.Errorf("frame of kind byte %#x: app error %v, want unknown message kind %d", b, err, b)
			}
		}
	}
}

// recTransport records the frames a link hands it, or refuses them. Its
// node is "near" unless named.
type recTransport struct {
	name    string
	mu      sync.Mutex
	frames  [][]byte
	refuse  bool
	refused []byte // the last refused buffer itself, not a copy
}

func (r *recTransport) Local() string {
	if r.name != "" {
		return r.name
	}
	return "near"
}
func (r *recTransport) SetHandler(transport.Handler) {}
func (r *recTransport) Close() error                 { return nil }
func (r *recTransport) Send(_ string, b []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refuse {
		r.refused = b
		return errors.New("recTransport: refused")
	}
	r.frames = append(r.frames, append([]byte(nil), b...))
	return nil
}

// take returns and forgets the frames seen so far.
func (r *recTransport) take() (frames [][]byte, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	frames, r.frames = r.frames, nil
	for _, f := range frames {
		bytes += int64(len(f))
	}
	return frames, bytes
}

type linkTok struct{ N int }

func newRecordedLink(t *testing.T, cfg Config) (*link, *recTransport, *App) {
	t.Helper()
	cfg.Registry = serial.NewRegistry()
	if err := serial.Register[linkTok](cfg.Registry); err != nil {
		t.Fatal(err)
	}
	tr := &recTransport{}
	app := NewApp(cfg)
	t.Cleanup(app.Close)
	rt, err := app.AttachTransport(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.AttachTransport(&recTransport{name: "far"}); err != nil {
		t.Fatal(err)
	}
	return &rt.lnk, tr, app
}

// farNode is the recorded link's peer: the node the tests' traffic comes
// from, and the origin of the calls its tokens belong to.
func farNode(l *link) *Runtime {
	rt, _ := l.rt.app.runtime("far")
	return rt
}

// tokenEnv is a token of the application's graph "g", called from "far";
// where the application declares no "g", one declared only by name, which
// can be sent and not received.
func tokenEnv(l *link) *envelope {
	g, ok := l.rt.app.Graph("g")
	if !ok {
		g = testGraph(idTable{}, "g")
	}
	env := getEnvelope()
	env.Graph, env.CallOrigin, env.Token = g, farNode(l), &linkTok{N: 7}
	return env
}

// sendOneOf sends one message of each wire kind the link sends to dst
// through the link's sender for that kind, and one of each flagged framing
// of a token or group-end, named after the retired kind that carried it.
// kind is the frame's expected first byte.
var sendOneOf = map[string]struct {
	kind byte
	send func(l *link, dst string)
}{
	"msgToken": {msgToken, func(l *link, dst string) { l.sendToken(tokenEnv(l), dst, place.Direct, txSend) }},
	"msgTokenFT": {msgToken | flagStamped, func(l *link, dst string) {
		env := tokenEnv(l)
		env.FTStream, env.FTSeq = ft.Stream{Sender: 1}, 3
		l.sendToken(env, dst, place.Direct, txSend)
	}},
	"msgTraced": {msgToken | flagTraced, func(l *link, dst string) {
		env := tokenEnv(l)
		env.TraceID = 99
		l.sendToken(env, dst, place.Direct, txSend)
	}},
	"msgForwarded": {msgToken | flagForwarded, func(l *link, dst string) { l.sendToken(tokenEnv(l), dst, place.Forwarded, txSend) }},
	"msgGroupEnd": {msgGroupEnd, func(l *link, dst string) {
		l.sendGroupEnd(dst, &groupEndMsg{Graph: tokenEnv(l).Graph, Total: 1}, place.Direct)
	}},
	"msgGroupEndFT": {msgGroupEnd | flagStamped, func(l *link, dst string) {
		l.sendGroupEnd(dst, &groupEndMsg{Graph: tokenEnv(l).Graph, Total: 1, FTStream: ft.Stream{Sender: 1}, FTSeq: 4}, place.Direct)
	}},
	"forwardedGroupEnd": {msgGroupEnd | flagForwarded, func(l *link, dst string) {
		l.sendGroupEnd(dst, &groupEndMsg{Graph: tokenEnv(l).Graph, Total: 1}, place.Forwarded)
	}},
	"msgAck": {msgAck, func(l *link, dst string) { l.sendAck(dst, ackMsg{GroupID: 1}) }},
	"msgResult": {msgResult, func(l *link, dst string) {
		origin, _ := l.rt.app.runtime(dst)
		l.sendResult(&envelope{CallID: 5, CallOrigin: origin}, &linkTok{N: 1})
	}},
	"msgMigrate": {msgMigrate, func(l *link, dst string) {
		l.sendRehome(dst, &rehomeMsg{Key: place.Key{Collection: "c"}, State: []byte("st")})
	}},
	"msgFence": {msgFence, func(l *link, dst string) {
		l.sendFence(dst, &fenceMsg{Collection: "c", Src: "near", Phase: fenceClose})
	}},
	"msgCheckpoint": {msgCheckpoint, func(l *link, dst string) {
		l.sendCheckpoint(dst, &ft.Record{Key: place.Key{Collection: "c"}})
	}},
	"msgReplay": {msgReplay, func(l *link, dst string) {
		l.sendRehome(dst, &rehomeMsg{Epoch: 2, Rec: &ft.Record{Key: place.Key{Collection: "c"}}, Replay: true})
	}},
	"msgCut": {msgCut, func(l *link, dst string) {
		l.sendCut(dst, cutMsg{Stream: ft.Stream{Sender: 1}, DstCollection: "c", Seq: 9})
	}},
	"msgDeath": {msgDeath, func(l *link, dst string) { l.sendDeath(dst, deathMsg{Node: "gone"}) }},
}

// TestTransmitChokePoint drives every row of the kind table, and every
// flagged framing, through the link's one transmit path and a recording
// transport.
func TestTransmitChokePoint(t *testing.T) {
	for name, kind := range frozenWireKinds {
		// A row without a fail policy is receive-only: the link has no
		// sender for it.
		if c, ok := sendOneOf[name]; wireKinds[kind].fail != 0 && (!ok || c.kind != kind) {
			t.Errorf("%s: no sender in this test; add one with the kind's table row", name)
		}
	}
	for name, c := range sendOneOf {
		name, kind, send, row := name, c.kind, c.send, wireKinds[c.kind&kindMask]

		// (a) BytesSent grows by exactly the bytes the transport saw.
		t.Run(name+"/bytes", func(t *testing.T) {
			l, tr, _ := newRecordedLink(t, Config{})
			send(l, "far")
			frames, seen := tr.take()
			if len(frames) != 1 || frames[0][0] != kind {
				t.Fatalf("transport saw %d frames (first kind %v), want one frame of kind %d", len(frames), frames, kind)
			}
			if got := l.rt.Stats().BytesSent; got != seen {
				t.Errorf("BytesSent = %d, transport saw %d bytes", got, seen)
			}
		})

		// (b) Wire order is send order: a token an execution sent earlier
		// reaches the transport first, this kind's frame right behind it,
		// and the byte accounting covers both.
		t.Run(name+"/order", func(t *testing.T) {
			l, tr, _ := newRecordedLink(t, Config{})
			l.sendToken(tokenEnv(l), "far", place.Direct, txCorked)
			send(l, "far")
			frames, seen := tr.take()
			if len(frames) != 2 || frames[0][0] != msgToken || frames[1][0] != kind {
				t.Fatalf("transport saw %v, want the earlier token then one frame of kind %d", frames, kind)
			}
			if got := l.rt.Stats().BytesSent; got != seen {
				t.Errorf("BytesSent = %d, transport saw %d bytes", got, seen)
			}
		})

		// (c) A refused frame returns to the wire pool and the failure
		// surfaces as the row's policy says. sync.Pool may drop a Put (it
		// does so on purpose under the race detector), so the pool check
		// retries; code that never recycles never passes it.
		t.Run(name+"/failure", func(t *testing.T) {
			l, tr, app := newRecordedLink(t, Config{})
			tr.refuse = true
			recycled := false
			for attempt := 0; attempt < 20 && !recycled; attempt++ {
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					send(l, "far")
				}()
				_, isOpError := panicked.(opError)
				if (row.fail == failPanic) != isOpError || (panicked != nil && !isOpError) {
					t.Fatalf("panic %v, policy %d", panicked, row.fail)
				}
				if (row.fail == failLink) != (app.Err() != nil) {
					t.Fatalf("application error %v, policy %d", app.Err(), row.fail)
				}
				got := getWireBuf(&Stats{}, len(tr.refused))
				recycled = cap(got) > 0 && &got[:1][0] == &tr.refused[:1][0]
			}
			if !recycled {
				t.Error("the refused buffer never came back from the wire pool")
			}
		})
	}
}

// forwardedLink is a recorded link whose node hosts thread fwd-work[0] of a
// one-leaf graph; ran receives what the leaf executes.
func forwardedLink(t *testing.T) (l *link, tr *recTransport, key place.Key, ran chan int) {
	t.Helper()
	l, tr, app := newRecordedLink(t, Config{})
	work, err := NewCollection[struct{}](app, "fwd-work")
	if err != nil {
		t.Fatal(err)
	}
	if err := work.Map("near"); err != nil {
		t.Fatal(err)
	}
	ran = make(chan int, 4)
	leaf := Leaf[*linkTok, *linkTok]("fwd-leaf", func(c *Ctx, in *linkTok) *linkTok {
		ran <- in.N
		return in
	})
	if _, err := app.NewFlowgraph("g", Path(NewNode(leaf, work, MainRoute()))); err != nil {
		t.Fatal(err)
	}
	return l, tr, place.Key{Collection: "fwd-work"}, ran
}

// TestForwardedLaneOverWire follows a sampled token through a relay and the
// wire to the thread's new owner: the relay records the forward span and
// sends the token flagged forwarded and traced, and the new owner — gating every sender — delivers it with its trace ID while a direct
// token under the relay's own name waits behind the gate.
func TestForwardedLaneOverWire(t *testing.T) {
	relay, relayTr, key, _ := forwardedLink(t)
	relay.rt.place.activate()
	th := relay.rt.placeThread(key)
	if err := th.BeginHold(0); err != nil {
		t.Fatal(err)
	}
	if th.Flush("far") != nil {
		t.Fatal("empty hold flushed something")
	}
	env := tokenEnv(relay)
	env.TraceID = 99
	relay.rt.deliverToken(env, "sender", place.Direct)
	frames, _ := relayTr.take()
	if len(frames) != 1 || frames[0][0] != msgToken|flagTraced|flagForwarded {
		t.Fatalf("relay sent %v, want one forwarded traced token", frames)
	}
	if got := relay.rt.Stats().TokensForwarded; got != 1 {
		t.Fatalf("TokensForwarded = %d, want 1", got)
	}
	if kinds := spanKinds(relay.rt.TraceSpans(99)); !kinds["forward"] {
		t.Fatalf("relay recorded %v for trace 99, want a forward span", kinds)
	}

	owner, _, key, ran := forwardedLink(t)
	owner.rt.place.activate()
	oth := owner.rt.placeThread(key)
	oth.Expect()
	owner.rt.drain(oth, oth.Install(1, 1, ""))
	direct := tokenEnv(owner)
	direct.Token = &linkTok{N: 1}
	directFrame, err := owner.tokenFrame(direct, place.Direct)
	if err != nil {
		t.Fatal(err)
	}
	owner.handle("far", directFrame)
	owner.handle("far", frames[0])
	if got := <-ran; got != 7 {
		t.Fatalf("leaf ran token %d first, want the forwarded one (7): the direct token overtook the gate", got)
	}
	if err := owner.rt.app.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds := spanKinds(owner.rt.TraceSpans(99)); !kinds["wire"] {
		t.Fatalf("owner recorded %v for trace 99, want the wire span of the forwarded frame", kinds)
	}
	owner.rt.deliverFence(&fenceMsg{Collection: key.Collection, Epoch: 1, Src: "far", Phase: fenceClose})
	if got := <-ran; got != 1 {
		t.Fatalf("closing fence released token %d, want the gated direct token (1)", got)
	}
}

func spanKinds(spans []trace.Span) map[string]bool {
	kinds := make(map[string]bool)
	for _, s := range spans {
		kinds[s.Kind] = true
	}
	return kinds
}

// TestForwardedFrameHostile feeds the forwarded lane lies: a flag the kind
// refuses is an unknown kind, and every other lie fails the application
// with a decode error — no panic, and nothing allocated beyond the frame's
// own size class.
func TestForwardedFrameHostile(t *testing.T) {
	ids := idTable{}
	g, far := testGraph(ids, "g"), testNode(ids, "far")
	token := encodeEnvelopeHeader(&envelope{Graph: g, CallOrigin: far})[1:]
	const unknown = "unknown message kind"
	hostile := map[string]struct {
		frame []byte
		want  string
	}{
		"truncated wrapper":         {[]byte{msgToken | flagForwarded}, "bad "},
		"unknown inner kind":        {[]byte{msgBatch | flagForwarded, 1, 2, 3}, unknown},
		"non-forwardable inner":     {append([]byte{msgAck | flagForwarded}, encodeAck(ackMsg{GroupID: 1})[1:]...), unknown},
		"forwarded fence":           {append([]byte{msgFence | flagForwarded}, appendFence(nil, &fenceMsg{Collection: "c", Src: "s", Phase: fenceClose})[1:]...), unknown},
		"a flag the kind refuses":   {append([]byte{msgResult | flagStamped}, appendFTStamp(nil, ft.Stream{Sender: 1}, 1)...), unknown},
		"wrapper inside traced":     {appendHead(nil, msgToken, place.Forwarded, ft.Stream{}, 0, 9, 1), "bad "},
		"truncated inner token":     {[]byte{msgToken | flagForwarded, 0x05, 'a'}, "bad "},
		"truncated inner traced":    {[]byte{msgToken | flagTraced | flagForwarded, 0x09}, "bad "},
		"traced around a non-token": {append([]byte{msgGroupEnd | flagTraced | flagForwarded, 9, 1}, encodeGroupEnd(&groupEndMsg{Graph: g})[1:]...), unknown},
		"truncated inner group-end": {[]byte{msgGroupEnd | flagForwarded, 0x01, 'g'}, "bad "},
		"inner frame count lie":     {append([]byte{msgToken | flagForwarded}, hostileFrameCount()[1:]...), "bad "},
		"truncated stamp":           {[]byte{msgToken | flagStamped | flagForwarded, 1, 2, 3}, "bad "},
		"stamped with sequence 0":   {append(appendFTStamp([]byte{msgGroupEnd | flagStamped | flagForwarded}, ft.Stream{Sender: 1}, 0), encodeGroupEnd(&groupEndMsg{Graph: g})[1:]...), "bad "},
		"traced with trace id 0":    {append([]byte{msgToken | flagTraced | flagForwarded, 0, 2}, token...), "bad "},
	}
	for name, c := range hostile {
		t.Run(name, func(t *testing.T) {
			l, _, _, _ := forwardedLink(t) // declares the ids the frames carry
			app := l.rt.app
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l.handle("far", c.frame)
			runtime.ReadMemStats(&after)
			if err := app.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("application error %v, want %q", err, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("a %d-byte hostile frame allocated %d bytes", len(c.frame), grew)
			}
		})
	}
}

// TestFencePhaseRejected: the closing fence is the only phase there is; the
// retired opening phase and every other value are a bad frame, not a no-op.
func TestFencePhaseRejected(t *testing.T) {
	for _, phase := range []byte{0, 2, 3, 255} {
		l, _, app := newRecordedLink(t, Config{})
		l.handle("far", appendFence(nil, &fenceMsg{Collection: "c", Epoch: 1, Src: "far", Phase: phase}))
		if err := app.Err(); err == nil || !strings.Contains(err.Error(), "unknown fence phase") {
			t.Errorf("phase %d: application error %v, want an unknown-phase decode failure", phase, err)
		}
	}
	if _, err := decodeFence(appendFence(nil, &fenceMsg{Collection: "c", Src: "far", Phase: fenceClose})[1:]); err != nil {
		t.Errorf("closing fence rejected: %v", err)
	}
}

// TestControlTrailingBytes: a fence, cut or death notice ends with its
// last field, so a byte behind it is a bad frame, not ignored.
func TestControlTrailingBytes(t *testing.T) {
	for name, frame := range map[string][]byte{
		"fence": appendFence(nil, &fenceMsg{Collection: "c", Epoch: 1, Src: "far", Phase: fenceClose}),
		"cut":   appendCut(nil, cutMsg{Stream: ft.Stream{Sender: 1}, DstCollection: "c", Seq: 9}),
		"death": appendDeath(nil, deathMsg{Node: "gone"}),
	} {
		l, _, app := newRecordedLink(t, Config{})
		l.handle("far", append(frame, 0))
		if err := app.Err(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
			t.Errorf("%s with a trailing byte: application error %v, want a trailing-bytes decode failure", name, err)
		}
	}
}

// hostileFrameCount is a token frame of graph "g" from node "far" whose
// envelope claims 65536 group frames with eight bytes behind the claim.
func hostileFrameCount() []byte {
	ids := idTable{}
	hdr := encodeEnvelopeHeader(&envelope{Graph: testGraph(ids, "g"), CallOrigin: testNode(ids, "far")})
	lie := appendInt(hdr[:len(hdr)-1], 1<<16)
	return append(lie, make([]byte, 8)...)
}
