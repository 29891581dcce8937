package core_test

import (
	"bytes"
	"context"
	"hash/crc32"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/serial"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

type aliasTok struct {
	N    int
	Sum  uint32
	Data []byte
}

// aliasWatch pairs the buffers given to the wire pool with the bytes of the
// tokens delivered, and counts every token whose bytes lie in such a buffer,
// whichever of the two it learns of first. It keeps both alive, so no later
// allocation can take an address it holds.
type aliasWatch struct {
	mu      sync.Mutex
	pooled  map[*byte]int // first byte → capacity
	data    [][]byte
	aliased map[int]bool // indexes in data of the tokens found in a pooled buffer
}

func inside(data []byte, first *byte, capacity int) bool {
	lo := uintptr(unsafe.Pointer(first))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= lo && p < lo+uintptr(capacity)
}

func (w *aliasWatch) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	first := unsafe.SliceData(b[:1])
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pooled[first] = cap(b)
	for i, d := range w.data {
		if inside(d, first, cap(b)) {
			w.aliased[i] = true
		}
	}
}

func (w *aliasWatch) token(data []byte) {
	if len(data) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.data = append(w.data, data)
	for first, c := range w.pooled {
		if inside(data, first, c) {
			w.aliased[len(w.data)-1] = true
		}
	}
}

// TestNoTokenAliasesItsFrame: whatever the fabric — the in-process one under
// ForceSerialize, where the receiver is handed the sender's own pool buffer;
// bare TCP nodes, which read every frame into a buffer lent from the pool;
// and kernels, whose nodes borrow too and copy each application's payload
// into one more — a token of any size, from 2 KiB to above the transport's
// 1 MiB read chunk, reaches the leaf and the caller's result with bytes of
// its own, in no buffer ever given to the wire pool.
func TestNoTokenAliasesItsFrame(t *testing.T) {
	sizes := []int{2 << 10, 40 << 10, 64 << 10, 1 << 20, 2 << 20}
	fabrics := []struct {
		name string
		app  func(t *testing.T, cfg core.Config) *core.App
	}{
		{"inproc", func(t *testing.T, cfg core.Config) *core.App {
			cfg.ForceSerialize = true
			app, err := core.NewLocalApp(cfg, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			return app
		}},
		{"tcp", func(t *testing.T, cfg core.Config) *core.App {
			table := map[string]string{}
			var trs []transport.Transport
			for _, name := range []string{"a", "b"} {
				n, err := tcptransport.Listen(name, "127.0.0.1:0", tcptransport.StaticResolver(table))
				if err != nil {
					t.Fatal(err)
				}
				table[name] = n.Addr()
				trs = append(trs, n)
			}
			app, err := core.NewAppOn(cfg, trs...)
			if err != nil {
				t.Fatal(err)
			}
			return app
		}},
		{"kernel", func(t *testing.T, cfg core.Config) *core.App {
			ns, err := kernel.StartNameServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ns.Close() })
			var trs []transport.Transport
			for _, name := range []string{"a", "b"} {
				k, err := kernel.Start(name, "127.0.0.1:0", ns.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = k.Close() })
				trs = append(trs, k.Transport("alias"))
			}
			app, err := core.NewAppOn(cfg, trs...)
			if err != nil {
				t.Fatal(err)
			}
			return app
		}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			reg := serial.NewRegistry()
			if err := serial.Register[aliasTok](reg); err != nil {
				t.Fatal(err)
			}
			app := f.app(t, core.Config{Registry: reg})
			t.Cleanup(app.Close)
			work := core.MustCollection[struct{}](app, "alias-work")
			if err := work.Map("b"); err != nil {
				t.Fatal(err)
			}
			w := &aliasWatch{pooled: make(map[*byte]int), aliased: make(map[int]bool)}
			core.SetWireBufPutHook(t, w.put)
			leaf := core.Leaf[*aliasTok, *aliasTok]("alias-leaf", func(c *core.Ctx, in *aliasTok) *aliasTok {
				w.token(in.Data)
				return in
			})
			g, err := app.NewFlowgraph("alias", core.Path(core.NewNode(leaf, work, core.MainRoute())))
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				for i := 0; i < 3; i++ {
					data := bytes.Repeat([]byte{byte(i + 1)}, size)
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					out, err := g.CallFrom(ctx, "a", &aliasTok{N: i, Sum: crc32.ChecksumIEEE(data), Data: data})
					cancel()
					if err != nil {
						t.Fatal(err)
					}
					res := out.(*aliasTok)
					if len(res.Data) != size || crc32.ChecksumIEEE(res.Data) != res.Sum {
						t.Fatalf("a %d-byte token came back as %d bytes, intact=%v", size, len(res.Data), crc32.ChecksumIEEE(res.Data) == res.Sum)
					}
					w.token(res.Data)
				}
			}
			w.mu.Lock()
			defer w.mu.Unlock()
			if len(w.aliased) > 0 {
				t.Fatalf("%d of %d tokens delivered with their bytes in a wire-pool buffer (%d buffers pooled)", len(w.aliased), len(w.data), len(w.pooled))
			}
			if len(w.pooled) == 0 {
				t.Fatal("no buffer reached the wire pool: the run did not cross the fabric")
			}
		})
	}
}
