package integration

import (
	"context"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"repro/dps"
	"repro/internal/race"
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

// TestRingOverTCPAllocationBudget is the paper's Figure 6 ring on three real
// TCP nodes — split on ra0, forward on ra1 and ra2, merge on ra0 — with
// checksummed 64 KiB blocks, and counts what one block costs the allocator:
// every block crosses three sockets, and each crossing may allocate the
// received frame (which becomes the block's bytes) and nothing else of the
// block's size. With the test's own 64 KiB per block that is four payloads
// (4.43 measured: a 65.6 KB frame takes a 72 KiB size class); the bound of
// five leaves room for the small objects and for a pool that the collector
// empties now and then. Before frames were kept and sent buffers returned, a
// block cost 7.9 payloads: a frame, a copy out of it and a fresh send buffer
// per hop. Under the race detector sync.Pool drops every fourth Put, so a
// quarter of the sends allocate their buffer after all (5.3 measured) and
// the bound is six; that every hop kept its frame is exact either way.
//
// In objects a block is the test's own two (the block and its data), per
// forwarding hop the frame, the decoded block and the execution's Ctx, and at
// the merge the frame and the decoded block: ten, 10.2 with the per-call
// objects spread over 64 blocks. Measured 12.1: at 290 KB a block the
// collector runs every 14 blocks or so and empties the pools each time, which
// costs 0.6 envelopes and 0.9 objects inside sync.Pool per block. The bound
// of 13 holds the count there (29.2 before executions, tickets, frame stacks
// and the owning decode stopped allocating). The race detector's dropped
// Puts add envelopes and buffers: 17.3 measured (33.7 before), bound 19.
func TestRingOverTCPAllocationBudget(t *testing.T) {
	const (
		blockSize = 64 << 10
		perCall   = 64
		warmCalls = 4
		calls     = 16
	)
	budget, objectBudget := 5.0*blockSize, 13.0
	if race.Enabled {
		budget, objectBudget = 6.0*blockSize, 19.0
	}
	names := []string{"ra0", "ra1", "ra2"}
	table := map[string]string{}
	resolver := tcptransport.StaticResolver(table)
	var app *dps.App
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		table[name] = n.Addr()
		if app == nil {
			if app, err = dps.Connect(n); err == nil {
				t.Cleanup(app.Close)
			}
		} else {
			err = app.Attach(n)
		}
		if err != nil {
			n.Close()
			t.Fatal(err)
		}
	}
	on := func(name, node string) *dps.Collection {
		c := dps.MustCollection[struct{}](app, name)
		if err := c.MapNodes(node); err != nil {
			t.Fatal(err)
		}
		return c
	}
	head, mid, tail := on("ra-head", names[0]), on("ra-mid", names[1]), on("ra-tail", names[2])
	split := dps.Split("ra-split", head, dps.MainRoute(),
		func(c *dps.Ctx, in *raOrder, post func(*raBlock)) {
			for i := 0; i < in.Blocks; i++ {
				data := make([]byte, blockSize)
				for j := range data {
					data[j] = byte(i + j)
				}
				post(&raBlock{Seq: i, Sum: crc32.ChecksumIEEE(data), Data: data})
			}
		})
	forward := func(name string, on *dps.Collection) dps.Stage[*raBlock, *raBlock] {
		return dps.Leaf(name, on, dps.MainRoute(), func(c *dps.Ctx, in *raBlock) *raBlock { return in })
	}
	merge := dps.Merge("ra-merge", head, dps.MainRoute(),
		func(c *dps.Ctx, first *raBlock, next func() (*raBlock, bool)) *raDone {
			done := &raDone{}
			for in, ok := first, true; ok; in, ok = next() {
				done.Blocks++
				if len(in.Data) != blockSize || crc32.ChecksumIEEE(in.Data) != in.Sum {
					done.Bad++
				}
			}
			return done
		})
	g, err := dps.Build(app, "ra-ring",
		dps.Then(dps.Then(dps.Then(dps.Chain(split), forward("ra-fwd1", mid)), forward("ra-fwd2", tail)), merge))
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			done, err := g.Call(ctx, &raOrder{Blocks: perCall})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if done.Blocks != perCall || done.Bad != 0 {
				t.Fatalf("ring returned %d blocks, %d damaged; want %d intact", done.Blocks, done.Bad, perCall)
			}
		}
	}
	run(warmCalls) // dial, grow queues, fill the pool

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / (calls * perCall)
	objects := float64(after.Mallocs-before.Mallocs) / (calls * perCall)
	st := app.Stats()
	t.Logf("%.0f B in %.2f objects allocated per 64 KiB block (%.2f payloads); FramesKept %d, WireBufMisses %d over %d blocks",
		perBlock, objects, perBlock/blockSize, st.FramesKept, st.WireBufMisses, (warmCalls+calls)*perCall)
	if perBlock > budget {
		t.Errorf("%.0f B allocated per block, budget %.0f (%.0f payloads)", perBlock, budget, budget/blockSize)
	}
	if objects > objectBudget {
		t.Errorf("%.2f objects allocated per block, budget %.0f", objects, objectBudget)
	}
	if want := int64(3 * (warmCalls + calls) * perCall); st.FramesKept != want {
		t.Errorf("FramesKept = %d, want %d: every block's frame becomes its bytes at each of three hops", st.FramesKept, want)
	}
}
