package core

import (
	"bytes"
	"context"
	"hash/crc32"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/serial"
	"repro/internal/transport/tcptransport"
)

// blobTok is a token that is nearly all one byte slice, the shape whose
// frame the owning decode keeps.
type blobTok struct {
	N    int
	Sum  uint32
	Data []byte
}

func newBlob(n, size int) *blobTok {
	t := &blobTok{N: n}
	if size >= 0 {
		t.Data = bytes.Repeat([]byte{byte(n) | 1}, size)
	}
	t.Sum = crc32.ChecksumIEEE(t.Data)
	return t
}

func (t *blobTok) intact() bool { return crc32.ChecksumIEEE(t.Data) == t.Sum }

// putLog counts, per buffer, how often it was given to putWireBuf.
type putLog struct {
	mu   sync.Mutex
	puts map[*byte]int
}

// poisonPuts installs a wireBufPutHook that logs every buffer given to
// putWireBuf and overwrites its whole capacity on the spot — which the
// giver, being its only owner, permits, and the pool's next owner would do
// anyway at a time of its choosing.
func poisonPuts(t *testing.T) *putLog {
	t.Helper()
	pl := &putLog{puts: make(map[*byte]int)}
	hook := func(b []byte) {
		if cap(b) == 0 {
			return
		}
		b = b[:cap(b)]
		pl.mu.Lock()
		pl.puts[&b[0]]++
		pl.mu.Unlock()
		for i := range b {
			b[i] = 0xA5
		}
	}
	wireBufPutHook.Store(&hook)
	t.Cleanup(func() { wireBufPutHook.Store(nil) })
	return pl
}

// of counts the puts of any buffer starting inside frame (a receive function
// may recycle a frame from its first byte, a kernel port from the byte after
// its own header).
func (pl *putLog) of(frame []byte) int {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	hi := lo + uintptr(cap(frame))
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for p, k := range pl.puts {
		if a := uintptr(unsafe.Pointer(p)); a >= lo && a < hi {
			n += k
		}
	}
	return n
}

func pointsInto(s, frame []byte) bool {
	if len(s) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return p >= lo && p < lo+uintptr(cap(frame))
}

// blobLink is a recorded link whose node hosts a one-leaf graph over
// blobTok; ran receives what the leaf is given.
func blobLink(t *testing.T, cfg Config) (l *link, tr *recTransport, ran chan *blobTok) {
	t.Helper()
	l, tr, app := newRecordedLink(t, cfg)
	if err := serial.Register[blobTok](l.reg); err != nil {
		t.Fatal(err)
	}
	work, err := NewCollection[struct{}](app, "blob-work")
	if err != nil {
		t.Fatal(err)
	}
	if err := work.Map("near"); err != nil {
		t.Fatal(err)
	}
	ran = make(chan *blobTok, 4)
	leaf := Leaf[*blobTok, *blobTok]("blob-leaf", func(c *Ctx, in *blobTok) *blobTok {
		ran <- in
		return &blobTok{N: in.N}
	})
	if _, err := app.NewFlowgraph("g", Path(NewNode(leaf, work, MainRoute()))); err != nil {
		t.Fatal(err)
	}
	return l, tr, ran
}

// TestFrameOwnershipPerKind: which received frames become their token's
// bytes and which are copied out of and recycled. A frame that is exactly one
// token — alone, sequenced, traced — or one result is the link's alone and
// is kept when it is at least maxClassedWireBuf long, in a buffer it fills at
// least half of, and the token's byte slice is at least half of it; a
// shorter one is, or may be, a pool buffer of its class (a
// transport.Borrower read it into one, an in-process sender encoded into
// one), so it is always copied out of; a forwarded wrapper and a batch frame
// outlive the entry being decoded, so their tokens are copies and the frame
// goes back to the pool. Either way a frame is disposed of once: kept and
// never pooled, or pooled exactly once — and overwritten as it is, which
// must not reach the delivered token.
func TestFrameOwnershipPerKind(t *testing.T) {
	const (
		big   = maxClassedWireBuf + 3000 // a keepable token
		small = 3000                     // one a batch takes in
	)
	env := func(tok *blobTok) *envelope {
		return &envelope{Graph: "g", CallOrigin: "far", Token: tok}
	}
	// tokenFrame builds the frame with the link's own sender and hands it
	// over in a buffer of exactly its length, whatever the pool drew.
	tokenFrame := func(mod func(*envelope), lane place.Lane, size int) func(*testing.T, *link) []byte {
		return func(t *testing.T, l *link) []byte {
			e := env(newBlob(7, size))
			if mod != nil {
				mod(e)
			}
			built, err := l.tokenFrame(e, lane)
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, len(built))
			copy(frame, built)
			return frame
		}
	}
	// frameOf is tokenFrame for a frame of exactly n bytes.
	frameOf := func(n int) func(*testing.T, *link) []byte {
		return func(t *testing.T, l *link) []byte {
			size := n - len(tokenFrame(nil, place.Direct, n)(t, l)) + n
			frame := tokenFrame(nil, place.Direct, size)(t, l)
			if len(frame) != n {
				t.Fatalf("built a frame of %d bytes, want %d", len(frame), n)
			}
			return frame
		}
	}
	sequenced := func(e *envelope) { e.FTStream, e.FTSeq = ft.Stream{Sender: 1}, 3 }
	traced := func(e *envelope) { e.TraceID = 99 }
	cases := []struct {
		name  string
		kind  byte
		frame func(*testing.T, *link) []byte
		kept  bool
	}{
		{"lone token", msgToken, tokenFrame(nil, place.Direct, big), true},
		{"sequenced token", msgTokenFT, tokenFrame(sequenced, place.Direct, big), true},
		{"traced token", msgTraced, tokenFrame(traced, place.Direct, big), true},
		{"lone token, no bytes to keep", msgToken, tokenFrame(nil, place.Direct, -1), false},
		{"short token in a pool buffer", msgToken, tokenFrame(nil, place.Direct, small), false},
		{"short sequenced token in a pool buffer", msgTokenFT, tokenFrame(sequenced, place.Direct, 40), false},
		{"short traced token in a pool buffer", msgTraced, tokenFrame(traced, place.Direct, 40), false},
		{"longest copied token", msgToken, frameOf(maxClassedWireBuf - 1), false},
		{"shortest keepable token", msgToken, frameOf(maxClassedWireBuf), true},
		{"forwarded token", msgForwarded, tokenFrame(nil, place.Forwarded, big), false},
		{"forwarded traced token", msgForwarded, tokenFrame(traced, place.Forwarded, big), false},
		{"batch entry", msgBatch, func(t *testing.T, _ *link) []byte {
			sender, tr, _ := blobLink(t, Config{Batch: true, BatchDelay: time.Hour})
			sender.sendToken(env(newBlob(7, small)), "far", place.Direct, txSend)
			sender.batcherFor("far").timedFlush()
			frames, _ := tr.take()
			if len(frames) != 1 {
				t.Fatalf("batching sender emitted %d frames, want one batch frame", len(frames))
			}
			return frames[0]
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, _, ran := blobLink(t, Config{})
			frame := c.frame(t, l)
			if frame[0] != c.kind {
				t.Fatalf("built a frame of kind %d, want %d", frame[0], c.kind)
			}
			pl := poisonPuts(t)
			l.handle("far", frame)
			var got *blobTok
			select {
			case got = <-ran:
			case <-time.After(5 * time.Second):
				t.Fatalf("token never delivered (app error: %v)", l.rt.app.Err())
			}
			checkDisposal(t, l, pl, frame, got, c.kept)
		})
	}

	for _, c := range []struct {
		name string
		size int
		kept bool
	}{{"result", big, true}, {"short result in a pool buffer", 40, false}} {
		t.Run(c.name, func(t *testing.T) {
			l, _, _ := blobLink(t, Config{})
			id, ce, err := l.rt.app.registerCall(context.Background(), l.rt)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := l.reg.Append(appendResultHeader(make([]byte, 0, big+64), id), newBlob(7, c.size))
			if err != nil {
				t.Fatal(err)
			}
			pl := poisonPuts(t)
			l.handle("far", frame)
			res := <-ce.ch
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			checkDisposal(t, l, pl, frame, res.Value.(*blobTok), c.kept)
		})
	}

	// ForceSerialize's same-node round trip decodes a buffer nobody else has
	// seen: the same rule, through the same helper.
	t.Run("round trip", func(t *testing.T) {
		l, _, _ := blobLink(t, Config{ForceSerialize: true})
		pl := poisonPuts(t)
		out, err := l.roundTrip(newBlob(7, big))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(*blobTok); !got.intact() || cap(got.Data) != len(got.Data) {
			t.Fatalf("round trip returned %d bytes (cap %d), intact=%v", len(got.Data), cap(got.Data), got.intact())
		}
		pl.mu.Lock()
		puts := len(pl.puts)
		pl.mu.Unlock()
		if kept := l.rt.Stats().FramesKept; kept != 1 || puts != 0 {
			t.Fatalf("FramesKept = %d, %d buffers pooled; want the marshal buffer kept and nothing pooled", kept, puts)
		}
	})
}

// newTCPApp attaches one tcptransport node per name, on loopback: every
// cross-node message is a real socket write and a frame read back into a
// buffer of the receiving transport's choosing. The nodes are returned in
// the order of names.
func newTCPApp(t *testing.T, cfg Config, names ...string) (*App, []*tcptransport.Node) {
	t.Helper()
	app := NewApp(cfg)
	table := map[string]string{}
	var nodes []*tcptransport.Node
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", tcptransport.StaticResolver(table))
		if err != nil {
			t.Fatal(err)
		}
		table[name] = n.Addr()
		if _, err := app.AttachTransport(n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return app, nodes
}

// TestShortFramesAreLentFromThePool: a transport that asks (transport.Borrower)
// is lent wire-pool buffers for frames under maxClassedWireBuf, each with
// room for the frame it is lent for, counted like a sender's when the pool
// has none; the link gives such a frame back once.
func TestShortFramesAreLentFromThePool(t *testing.T) {
	l, tr, ran := blobLink(t, Config{})
	if tr.limit != maxClassedWireBuf || tr.borrow == nil {
		t.Fatalf("AttachTransport installed limit %d, lender %v; want %d and the wire pool", tr.limit, tr.borrow != nil, maxClassedWireBuf)
	}
	built, err := l.tokenFrame(&envelope{Graph: "g", CallOrigin: "far", Token: newBlob(7, 5000)}, place.Direct)
	if err != nil {
		t.Fatal(err)
	}
	misses := l.rt.Stats().WireBufMisses
	var buf []byte
	for lent := 0; l.rt.Stats().WireBufMisses == misses; lent++ { // until the pool runs dry
		if lent == 1<<16 {
			t.Fatalf("%d buffers lent and none counted as a pool miss", lent)
		}
		if buf = tr.borrow(len(built)); len(buf) != 0 || cap(buf) < len(built) {
			t.Fatalf("lent a buffer of len %d cap %d, want empty with room for the %d-byte frame", len(buf), cap(buf), len(built))
		}
	}
	frame := append(buf, built...)
	pl := poisonPuts(t)
	l.handle("far", frame)
	checkDisposal(t, l, pl, frame, <-ran, false)
}

// checkDisposal checks what became of frame after handle decoded got out of
// it.
func checkDisposal(t *testing.T, l *link, pl *putLog, frame []byte, got *blobTok, kept bool) {
	t.Helper()
	if err := l.rt.app.Err(); err != nil {
		t.Fatal(err)
	}
	if got.N != 7 || !got.intact() {
		t.Fatalf("delivered token %d is damaged: its bytes were recycled under it", got.N)
	}
	if inside := pointsInto(got.Data, frame); inside != kept {
		t.Fatalf("token data points into the frame: %v, want %v", inside, kept)
	}
	wantKept, wantPuts := int64(0), 1
	if kept {
		wantKept, wantPuts = 1, 0
		if cap(got.Data) != len(got.Data) {
			t.Errorf("kept data has len %d cap %d: an append would write into the frame", len(got.Data), cap(got.Data))
		}
	}
	if n := l.rt.Stats().FramesKept; n != wantKept {
		t.Errorf("FramesKept = %d, want %d", n, wantKept)
	}
	if n := pl.of(frame); n != wantPuts {
		t.Errorf("the frame reached putWireBuf %d times, want %d", n, wantPuts)
	}
}

// TestPoisonedPoolNeverReachesTokens runs checksummed byte blocks of every
// size class through split, leaf, merge and result over serialized links
// while every buffer given to putWireBuf is overwritten on the spot. A
// buffer recycled while something still reads it — a frame pooled before its
// last field was copied out, a kept frame pooled at all, a sent buffer
// released before the write — shows up as a damaged block or a decode
// failure, at once or when the results held back are checked again at the
// end, after the pool has been through many more owners. The blocks under
// maxClassedWireBuf are the ones whose frame is a pool buffer of its class —
// the sender's own on the in-process fabric, one the transport borrowed over
// TCP — and must come out as copies; the two around the boundary put their
// frames on either side of it.
func TestPoisonedPoolNeverReachesTokens(t *testing.T) {
	sizes := []int{-1, 0, 9, 200, 600, 1100, 5000, maxClassedWireBuf - 1, maxClassedWireBuf, 70000}
	for _, cfg := range []struct {
		name string
		cfg  Config
		tcp  bool
	}{
		{"default", Config{ForceSerialize: true}, false},
		{"batched", Config{ForceSerialize: true, Batch: true}, false},
		{"traced", Config{ForceSerialize: true, TraceSample: 1}, false},
		{"tcp", Config{}, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			cfg.cfg.Registry = serial.NewRegistry()
			if err := serial.Register[blobTok](cfg.cfg.Registry); err != nil {
				t.Fatal(err)
			}
			var app *App
			var err error
			if cfg.tcp {
				app, _ = newTCPApp(t, cfg.cfg, "a", "b", "c")
			} else if app, err = NewLocalApp(cfg.cfg, "a", "b", "c"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(app.Close)
			main, err := NewCollection[struct{}](app, "main")
			if err != nil {
				t.Fatal(err)
			}
			work, err := NewCollection[struct{}](app, "work")
			if err != nil {
				t.Fatal(err)
			}
			if err := main.Map("a"); err != nil {
				t.Fatal(err)
			}
			if err := work.Map("b c"); err != nil {
				t.Fatal(err)
			}
			split := Split[*blobTok, *blobTok]("cut", func(c *Ctx, in *blobTok, post func(*blobTok)) {
				for i, size := range sizes {
					post(newBlob(in.N*len(sizes)+i, size))
				}
			})
			// The leaf passes on the token it was given: its bytes, possibly a
			// received frame's, are what the next hop encodes from.
			leaf := Leaf[*blobTok, *blobTok]("pass", func(c *Ctx, in *blobTok) *blobTok { return in })
			merge := Merge[*blobTok, *blobTok]("join", func(c *Ctx, first *blobTok, next func() (*blobTok, bool)) *blobTok {
				bad, n, largest := 0, 0, first
				for in, ok := first, true; ok; in, ok = next() {
					n++
					if !in.intact() {
						bad++
					}
					if len(in.Data) > len(largest.Data) {
						largest = in
					}
				}
				if bad > 0 || n != len(sizes) {
					return &blobTok{N: -1}
				}
				return largest
			})
			byN := ByKey[*blobTok]("byN", func(in *blobTok) int { return in.N })
			g, err := app.NewFlowgraph("blocks", Path(
				NewNode(split, main, MainRoute()),
				NewNode(leaf, work, byN),
				NewNode(merge, main, MainRoute()),
			))
			if err != nil {
				t.Fatal(err)
			}

			poisonPuts(t)
			const callers, perCaller = 4, 25
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				held []*blobTok
			)
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perCaller; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
						out, err := g.Call(ctx, &blobTok{N: c*perCaller + i})
						cancel()
						if err != nil {
							t.Errorf("call: %v", err)
							return
						}
						res := out.(*blobTok)
						if res.N < 0 || !res.intact() || len(res.Data) != 70000 {
							t.Errorf("call returned block %d with %d bytes, intact=%v", res.N, len(res.Data), res.intact())
							return
						}
						mu.Lock()
						held = append(held, res)
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			for _, res := range held {
				if !res.intact() {
					t.Fatalf("result %d was intact when delivered and is damaged now: its memory went back to the pool", res.N)
				}
			}
			st := app.Stats()
			if st.FramesKept == 0 {
				t.Error("no frame was kept: the run did not exercise the owning decode")
			}
			t.Logf("%d results held; FramesKept %d, WireBufMisses %d", len(held), st.FramesKept, st.WireBufMisses)
		})
	}
}

// TestKeptFrameNeverPinsAPoolBuffer: on the in-process fabric under
// ForceSerialize the receiver is handed the sender's own wire buffer, which
// may be one the pool kept from a much larger token. With 1 MiB buffers
// pooled before every call, a token — one under maxClassedWireBuf, and one
// above it whose frame the owning decode would keep if its buffer were
// tight — must come out with its bytes outside every one of them, at the
// leaf and in the caller's result.
func TestKeptFrameNeverPinsAPoolBuffer(t *testing.T) {
	reg := serial.NewRegistry()
	if err := serial.Register[blobTok](reg); err != nil {
		t.Fatal(err)
	}
	app, err := NewLocalApp(Config{ForceSerialize: true, Registry: reg}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	work, err := NewCollection[struct{}](app, "pin-work")
	if err != nil {
		t.Fatal(err)
	}
	if err := work.Map("b"); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		pooled [][]byte
	)
	inPooled := func(data []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, big := range pooled {
			if pointsInto(data, big) {
				return true
			}
		}
		return false
	}
	pinned := make(chan bool, 1)
	leaf := Leaf[*blobTok, *blobTok]("pin-leaf", func(c *Ctx, in *blobTok) *blobTok {
		pinned <- inPooled(in.Data)
		return in
	})
	g, err := app.NewFlowgraph("pin", Path(NewNode(leaf, work, MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2 << 10, 40 << 10} {
		for i := 0; i < 10; i++ {
			mu.Lock()
			for k := 0; k < 4; k++ {
				big := make([]byte, 0, 1<<20)
				pooled = append(pooled, big)
				putWireBuf(big)
			}
			mu.Unlock()
			out, err := g.Call(context.Background(), newBlob(i, size))
			if err != nil {
				t.Fatal(err)
			}
			res := out.(*blobTok)
			if <-pinned || inPooled(res.Data) || !res.intact() {
				t.Fatalf("a %d-byte token's bytes lie in a pooled 1 MiB buffer (call %d)", size, i)
			}
		}
	}
}
