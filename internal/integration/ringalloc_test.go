package integration

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/dps"
	"repro/internal/kernel"
	"repro/internal/race"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

type raOrder struct{ Blocks int }

type raBlock struct {
	Seq  int
	Sum  uint32
	Data []byte
}

type raDone struct{ Blocks, Bad int }

var (
	_ = dps.Register[raOrder]()
	_ = dps.Register[raBlock]()
	_ = dps.Register[raDone]()
)

// lentSet remembers every payload a transport lent its handler, and keeps
// each alive, so that no other allocation can take its address while the
// test asks whether a token's bytes lie in one.
type lentSet struct {
	mu   sync.Mutex
	bufs map[*byte]int // first byte → capacity; the key keeps the buffer alive
}

func (ls *lentSet) add(b []byte) {
	if cap(b) == 0 {
		return
	}
	first := unsafe.SliceData(b[:1])
	ls.mu.Lock()
	ls.bufs[first] = max(ls.bufs[first], cap(b))
	ls.mu.Unlock()
}

// holds reports whether data starts inside a lent buffer.
func (ls *lentSet) holds(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for b, c := range ls.bufs {
		if lo := uintptr(unsafe.Pointer(b)); p >= lo && p < lo+uintptr(c) {
			return true
		}
	}
	return false
}

// lendWatch is a transport whose every payload lent to the handler is
// recorded in lent. It forwards the rest of what the engine asks of a
// transport.
type lendWatch struct {
	transport.Transport
	lent *lentSet
}

func (w lendWatch) SetHandler(h transport.Handler) {
	w.Transport.SetHandler(func(src string, p []byte) {
		w.lent.add(p)
		h(src, p)
	})
}

func (w lendWatch) SetBorrow(borrow func(n int) []byte) {
	if b, ok := w.Transport.(transport.Borrower); ok {
		b.SetBorrow(borrow)
	}
}

func (w lendWatch) SetRelease(release func([]byte)) {
	w.Transport.(transport.Releaser).SetRelease(release)
}

func (w lendWatch) SendCorked(dst string, payload []byte) error {
	return w.Transport.(transport.Corker).SendCorked(dst, payload)
}

func (w lendWatch) Uncork() { w.Transport.(transport.Corker).Uncork() }

// watchedApp connects one application over trs, each watched by a
// lendWatch that records into the returned set.
func watchedApp(t *testing.T, trs ...transport.Transport) (*dps.App, *lentSet) {
	t.Helper()
	lent := &lentSet{bufs: make(map[*byte]int)}
	var app *dps.App
	for _, tr := range trs {
		var err error
		w := lendWatch{tr, lent}
		if app == nil {
			if app, err = dps.Connect(w); err == nil {
				t.Cleanup(app.Close)
			}
		} else {
			err = app.Attach(w)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return app, lent
}

const (
	raBlockSize = 64 << 10
	raPerCall   = 64
	raWarmCalls = 4
	raCalls     = 16
)

// ringAllocs runs the paper's Figure 6 ring over the nodes of app —
// split on nodes[0], a forwarding leaf on each of the others in turn, merge
// on nodes[0] — with checksummed 64 KiB blocks, and returns what one block
// costs the allocator once the ring is warm: bytes and objects per block.
// Every leaf and the merge check that the block they were given lies in no
// buffer in lent.
func ringAllocs(t *testing.T, app *dps.App, lent *lentSet, nodes ...string) (perBlock, objects float64) {
	t.Helper()
	var aliased atomic.Int64
	check := func(in *raBlock) {
		if lent.holds(in.Data) {
			aliased.Add(1)
		}
	}
	on := func(name, node string) *dps.Collection {
		c := dps.MustCollection[struct{}](app, name)
		if err := c.MapNodes(node); err != nil {
			t.Fatal(err)
		}
		return c
	}
	head := on("ra-head", nodes[0])
	split := dps.Split("ra-split", head, dps.MainRoute(),
		func(c *dps.Ctx, in *raOrder, post func(*raBlock)) {
			for i := 0; i < in.Blocks; i++ {
				data := make([]byte, raBlockSize)
				for j := range data {
					data[j] = byte(i + j)
				}
				post(&raBlock{Seq: i, Sum: crc32.ChecksumIEEE(data), Data: data})
			}
		})
	ring := dps.Chain(split)
	for i, node := range nodes[1:] {
		name := fmt.Sprintf("ra-fwd%d", i+1)
		ring = dps.Then(ring, dps.Leaf(name, on(name, node), dps.MainRoute(),
			func(c *dps.Ctx, in *raBlock) *raBlock { check(in); return in }))
	}
	merge := dps.Merge("ra-merge", head, dps.MainRoute(),
		func(c *dps.Ctx, first *raBlock, next func() (*raBlock, bool)) *raDone {
			done := &raDone{}
			for in, ok := first, true; ok; in, ok = next() {
				done.Blocks++
				check(in)
				if len(in.Data) != raBlockSize || crc32.ChecksumIEEE(in.Data) != in.Sum {
					done.Bad++
				}
			}
			return done
		})
	g, err := dps.Build(app, "ra-ring", dps.Then(ring, merge))
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			done, err := g.Call(ctx, &raOrder{Blocks: raPerCall})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if done.Blocks != raPerCall || done.Bad != 0 {
				t.Fatalf("ring returned %d blocks, %d damaged; want %d intact", done.Blocks, done.Bad, raPerCall)
			}
		}
	}
	run(raWarmCalls) // dial, grow queues, fill the pool

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(raCalls)
	runtime.ReadMemStats(&after)
	perBlock = float64(after.TotalAlloc-before.TotalAlloc) / (raCalls * raPerCall)
	objects = float64(after.Mallocs-before.Mallocs) / (raCalls * raPerCall)
	t.Logf("%.0f B in %.2f objects allocated per 64 KiB block (%.2f payloads); WireBufMisses %d over %d blocks",
		perBlock, objects, perBlock/raBlockSize, app.Stats().WireBufMisses, (raWarmCalls+raCalls)*raPerCall)
	if n := aliased.Load(); n > 0 {
		t.Errorf("%d blocks reached an operation with their bytes in a buffer lent for a received frame", n)
	}
	return perBlock, objects
}

// TestRingOverTCPAllocationBudget is the ring on three real TCP nodes —
// split on ra0, forward on ra1 and ra2, merge on ra0 — and counts what one
// block costs the allocator: every block crosses three sockets, and each
// crossing lends the frame from the connection's overflow buffer (a block's
// frame is longer than the read buffer) and copies the block's bytes out of
// it, allocating exactly its 64 KiB and nothing else of the block's size. With the test's own 64 KiB per block that is four payloads
// (4.06 measured); the bound of 4.5 leaves room for the small objects and
// for a pool that the collector empties now and then. While frames of
// 32 KiB and more were read into buffers of their own and kept as the
// block's bytes, a 65.6 KB frame took a 72 KiB size class and a block cost
// 4.4 payloads; before frames were kept and sent buffers returned, 7.9. Under
// the race detector sync.Pool drops every fourth Put, so a quarter of the
// sends and reads allocate their buffer after all (5.7-5.8 measured) and
// the bound is 6.5. No block's bytes may lie in a buffer lent for a
// received frame.
//
// In objects a block is the test's own two (the block and its data), per
// forwarding hop the block's bytes, the decoded block and the execution's
// Ctx, and at the merge the bytes and the decoded block: ten, 10.2 with the
// per-call objects spread over 64 blocks. Measured 11.5: each time the
// collector runs it empties the pools, which costs envelopes and objects
// inside sync.Pool. The bound of 13 holds the count
// there (29.2 before executions, tickets and frame stacks stopped
// allocating). The race detector's dropped Puts
// add envelopes and buffers: 16.0 measured (33.7 before), bound 19.
func TestRingOverTCPAllocationBudget(t *testing.T) {
	budget, objectBudget := 4.5*raBlockSize, 13.0
	if race.Enabled {
		budget, objectBudget = 6.5*raBlockSize, 19.0
	}
	names := []string{"ra0", "ra1", "ra2"}
	table := map[string]string{}
	var trs []transport.Transport
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", tcptransport.StaticResolver(table))
		if err != nil {
			t.Fatal(err)
		}
		table[name] = n.Addr()
		trs = append(trs, n)
	}
	app, lent := watchedApp(t, trs...)
	perBlock, objects := ringAllocs(t, app, lent, names...)
	if perBlock > budget {
		t.Errorf("%.0f B allocated per block, budget %.0f (%.1f payloads)", perBlock, budget, budget/raBlockSize)
	}
	if objects > objectBudget {
		t.Errorf("%.2f objects allocated per block, budget %.0f", objects, objectBudget)
	}
}

// TestRingOverKernelsAllocationBudget is the ring through two kernels, the
// paper's runtime environment: split on rk0, forward on rk1, merge on rk0,
// each block crossing two kernel sockets. Each kernel lends an application
// payload where it lies in its connection's buffer, and each hop allocates
// only the block's own 64 KiB: three payloads a block with the test's own.
// Measured 3.04 payloads and 8.6 objects; the bounds are 3.5 and 10. While the kernel's
// application port lent no buffers, each hop allocated a kernel frame and a
// sub-slice of it stayed the block's bytes: 5.53 payloads and 12.7 objects
// a block. Under the race detector sync.Pool drops every fourth Put, and a
// hop through two kernels draws four buffers: 5.8-5.9 payloads and 14.4
// objects measured, bounds 7 and 17.
func TestRingOverKernelsAllocationBudget(t *testing.T) {
	budget, objectBudget := 3.5*raBlockSize, 10.0
	if race.Enabled {
		budget, objectBudget = 7.0*raBlockSize, 17.0
	}
	ns, err := kernel.StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ns.Close() })
	names := []string{"rk0", "rk1"}
	var trs []transport.Transport
	for _, name := range names {
		k, err := kernel.Start(name, "127.0.0.1:0", ns.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = k.Close() })
		trs = append(trs, k.Transport("ring"))
	}
	app, lent := watchedApp(t, trs...)
	perBlock, objects := ringAllocs(t, app, lent, names...)
	if perBlock > budget {
		t.Errorf("%.0f B allocated per block, budget %.0f (%.1f payloads)", perBlock, budget, budget/raBlockSize)
	}
	if objects > objectBudget {
		t.Errorf("%.2f objects allocated per block, budget %.0f", objects, objectBudget)
	}
}
