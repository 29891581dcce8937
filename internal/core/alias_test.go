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

// aliasWatch pairs the buffers given to the wire pool and the payloads a
// transport lent its handler with the bytes of the tokens delivered, and
// counts every token whose bytes lie in such a buffer, whichever of the two
// it learns of first. It keeps all of them alive, so no later allocation can
// take an address it holds.
type aliasWatch struct {
	mu      sync.Mutex
	pooled  map[*byte]int // first byte → capacity; the key keeps the buffer alive
	lent    int
	data    [][]byte
	aliased map[int]bool // indexes in data of the tokens found in a pooled or lent buffer
}

func inside(data []byte, first *byte, capacity int) bool {
	lo := uintptr(unsafe.Pointer(first))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= lo && p < lo+uintptr(capacity)
}

// put records a buffer given to the wire pool.
func (w *aliasWatch) put(b []byte) { w.record(b, false) }

// lend records a payload lent to a handler.
func (w *aliasWatch) lend(p []byte) { w.record(p, true) }

func (w *aliasWatch) record(b []byte, lent bool) {
	if cap(b) == 0 {
		return
	}
	first := unsafe.SliceData(b[:1])
	w.mu.Lock()
	defer w.mu.Unlock()
	if lent {
		w.lent++
	}
	w.pooled[first] = max(w.pooled[first], cap(b))
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

// TestNoTokenAliasesItsFrame: whatever the fabric — the in-process one,
// which lends the receiver the sender's own pool buffer and then releases
// it; bare TCP nodes, which lend every frame from the connection's read or
// overflow buffer; and kernels, which lend each application's payload where
// it lies in the kernel frame — a token of any size, from 2 KiB to above
// the transport's 1 MiB read chunk, reaches the leaf and the caller's result
// with bytes of its own, in no payload ever lent to a handler and no buffer
// ever given to the wire pool.
func TestNoTokenAliasesItsFrame(t *testing.T) {
	sizes := []int{2 << 10, 40 << 10, 64 << 10, 1 << 20, 2 << 20}
	fabrics := []struct {
		name string
		trs  func(t *testing.T) []transport.Transport
	}{
		{"inproc", func(t *testing.T) []transport.Transport {
			fabric := transport.NewInproc()
			t.Cleanup(fabric.Close)
			var trs []transport.Transport
			for _, name := range []string{"a", "b"} {
				n, err := fabric.Node(name)
				if err != nil {
					t.Fatal(err)
				}
				trs = append(trs, n)
			}
			return trs
		}},
		{"tcp", func(t *testing.T) []transport.Transport {
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
			return trs
		}},
		{"kernel", func(t *testing.T) []transport.Transport {
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
			return trs
		}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			reg := serial.NewRegistry()
			if err := serial.Register[aliasTok](reg); err != nil {
				t.Fatal(err)
			}
			w := &aliasWatch{pooled: make(map[*byte]int), aliased: make(map[int]bool)}
			var trs []transport.Transport
			for _, tr := range f.trs(t) {
				trs = append(trs, core.WatchLent(tr, w.lend))
			}
			app, err := core.NewAppOn(core.Config{Registry: reg}, trs...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(app.Close)
			work := core.MustCollection[struct{}](app, "alias-work")
			if err := work.Map("b"); err != nil {
				t.Fatal(err)
			}
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
				t.Fatalf("%d of %d tokens delivered with their bytes in a lent payload or a wire-pool buffer (%d payloads lent, %d buffers seen)", len(w.aliased), len(w.data), w.lent, len(w.pooled))
			}
			if w.lent == 0 {
				t.Fatal("no payload was lent to a handler: the run did not cross the fabric")
			}
		})
	}
}
