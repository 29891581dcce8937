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

// blobTok is a token that is nearly all one byte slice: the shape whose
// bytes a decoder would be most tempted to leave in its frame.
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

// of counts the puts of any buffer starting inside frame.
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

// TestFrameOwnershipPerKind: every received frame — a token alone,
// sequenced, traced or forwarded, a result; short or long; in a pool
// buffer or not — is decoded by copy and given to the wire pool exactly once
// by handle, and overwritten as it is, which must not reach the delivered
// token.
func TestFrameOwnershipPerKind(t *testing.T) {
	const (
		big   = maxClassedWireBuf + 3000 // above the classes
		small = 3000                     // within the classes
	)
	env := func(l *link, tok *blobTok) *envelope {
		e := tokenEnv(l)
		e.Token = tok
		return e
	}
	// tokenFrame builds the frame with the link's own sender and hands it
	// over in a buffer of exactly its length, whatever the pool drew.
	tokenFrame := func(mod func(*envelope), lane place.Lane, size int) func(*testing.T, *link) []byte {
		return func(t *testing.T, l *link) []byte {
			e := env(l, newBlob(7, size))
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
	}{
		{"lone token", msgToken, tokenFrame(nil, place.Direct, big)},
		{"sequenced token", msgTokenFT, tokenFrame(sequenced, place.Direct, big)},
		{"traced token", msgTraced, tokenFrame(traced, place.Direct, big)},
		{"lone token, no bytes to keep", msgToken, tokenFrame(nil, place.Direct, -1)},
		{"short token in a pool buffer", msgToken, tokenFrame(nil, place.Direct, small)},
		{"short sequenced token in a pool buffer", msgTokenFT, tokenFrame(sequenced, place.Direct, 40)},
		{"short traced token in a pool buffer", msgTraced, tokenFrame(traced, place.Direct, 40)},
		{"longest copied token", msgToken, frameOf(maxClassedWireBuf - 1)},
		{"token filling the largest class", msgToken, frameOf(maxClassedWireBuf)},
		{"1 MiB token", msgToken, tokenFrame(nil, place.Direct, 1<<20)},
		{"forwarded token", msgForwarded, tokenFrame(nil, place.Forwarded, big)},
		{"forwarded traced token", msgForwarded, tokenFrame(traced, place.Forwarded, big)},
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
			checkDisposal(t, l, pl, frame, got)
		})
	}

	for _, c := range []struct {
		name string
		size int
	}{{"result", big}, {"short result in a pool buffer", 40}} {
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
			checkDisposal(t, l, pl, frame, res.Value.(*blobTok))
		})
	}

	// ForceSerialize's same-node round trip decodes a buffer nobody else has
	// seen: the same rule.
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
		if puts != 1 {
			t.Fatalf("%d buffers pooled; want the marshal buffer, once", puts)
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

// TestShortFramesAreLentFromThePool: a transport that asks
// (transport.Borrower) is lent wire-pool buffers for every frame, short or
// long, each with room for the frame it is lent for, counted like a
// sender's when the pool has none; the link gives such a frame back once.
func TestShortFramesAreLentFromThePool(t *testing.T) {
	for _, size := range []int{5000, 70000} {
		l, tr, ran := blobLink(t, Config{})
		if tr.borrow == nil {
			t.Fatal("AttachTransport installed no lender")
		}
		env := tokenEnv(l)
		env.Token = newBlob(7, size)
		built, err := l.tokenFrame(env, place.Direct)
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
		checkDisposal(t, l, pl, frame, <-ran)
	}
}

// checkDisposal checks what became of frame after handle decoded got out of
// it: got is intact, a copy, and the frame reached the pool exactly once.
func checkDisposal(t *testing.T, l *link, pl *putLog, frame []byte, got *blobTok) {
	t.Helper()
	if err := l.rt.app.Err(); err != nil {
		t.Fatal(err)
	}
	if got.N != 7 || !got.intact() {
		t.Fatalf("delivered token %d is damaged: its bytes were recycled under it", got.N)
	}
	if pointsInto(got.Data, frame) {
		t.Fatal("token data points into the frame")
	}
	if n := pl.of(frame); n != 1 {
		t.Errorf("the frame reached putWireBuf %d times, want once", n)
	}
}

// TestPoisonedPoolNeverReachesTokens runs checksummed byte blocks of every
// size class and above through split, leaf, merge and result over serialized
// links while every buffer given to putWireBuf is overwritten on the spot. A
// buffer recycled while something still reads it — a frame pooled before its
// last field was copied out, a sent buffer released before the write —
// shows up as a damaged block or a decode failure, at once or when the
// results held back are checked again at the end, after the pool has been
// through many more owners. Every frame is a pool buffer — the sender's own
// on the in-process fabric, one the transport borrowed over TCP — so every
// block must come out as a copy; the two around maxClassedWireBuf put their
// frames on either side of the largest class, and the 64 KiB and 1 MiB ones
// share the pool above it.
func TestPoisonedPoolNeverReachesTokens(t *testing.T) {
	const resultSize = 70000 // the block the merge returns
	sizes := []int{-1, 0, 9, 200, 600, 1100, 5000, maxClassedWireBuf - 1, maxClassedWireBuf, 64 << 10, resultSize, 1 << 20}
	for _, cfg := range []struct {
		name string
		cfg  Config
		tcp  bool
	}{
		{"default", Config{ForceSerialize: true}, false},
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
				bad, n, res := 0, 0, first
				for in, ok := first, true; ok; in, ok = next() {
					n++
					if !in.intact() {
						bad++
					}
					if len(in.Data) == resultSize {
						res = in
					}
				}
				if bad > 0 || n != len(sizes) {
					return &blobTok{N: -1}
				}
				return res
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
						if res.N < 0 || !res.intact() || len(res.Data) != resultSize {
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
			t.Logf("%d results held; WireBufMisses %d", len(held), app.Stats().WireBufMisses)
		})
	}
}
