package transport_test

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// lendFabric builds a sender and a receiver on one fabric. inProcess marks
// the fabrics that hand the receiver the sender's own buffer and release it
// once the handler has returned.
type lendFabric struct {
	name      string
	inProcess bool
	pair      func(t *testing.T) (from, to transport.Transport)
}

func lendFabrics() []lendFabric {
	return []lendFabric{
		{"inproc", true, func(t *testing.T) (transport.Transport, transport.Transport) {
			f := transport.NewInproc()
			t.Cleanup(f.Close)
			a, err := f.Node("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := f.Node("b")
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		}},
		{"sim", true, func(t *testing.T) (transport.Transport, transport.Transport) {
			net := simnet.New(simnet.Config{})
			t.Cleanup(net.Close)
			trs, err := transport.SimNodes(net, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			return trs[0], trs[1]
		}},
		{"tcp", false, func(t *testing.T) (transport.Transport, transport.Transport) {
			table := map[string]string{}
			var nodes [2]*tcptransport.Node
			for i, name := range []string{"a", "b"} {
				n, err := tcptransport.Listen(name, "127.0.0.1:0", tcptransport.StaticResolver(table))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = n.Close() })
				table[name] = n.Addr()
				nodes[i] = n
			}
			return nodes[0], nodes[1]
		}},
		{"kernel", false, func(t *testing.T) (transport.Transport, transport.Transport) {
			ka, kb := kernelPair(t)
			return ka.Transport("lend"), kb.Transport("lend")
		}},
	}
}

// kernelPair starts a name server and the kernels "ka" and "kb".
func kernelPair(t *testing.T) (ka, kb *kernel.Kernel) {
	t.Helper()
	ns, err := kernel.StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ns.Close() })
	var ks [2]*kernel.Kernel
	for i, name := range []string{"ka", "kb"} {
		k, err := kernel.Start(name, "127.0.0.1:0", ns.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = k.Close() })
		ks[i] = k
	}
	return ks[0], ks[1]
}

// lendPayload is frame i of the conformance stream: mostly short, every
// 25th above 64 KiB (a tcptransport connection's read buffer), and a few
// right at that size. Its bytes depend on i.
func lendPayload(i int) []byte {
	short := []int{0, 1, 40, 700, 3000, 20000}
	n := short[i%len(short)]
	switch i % 25 {
	case 0:
		n = 64<<10 + 1 + 37*i
	case 12:
		n = 64<<10 - i%3
	}
	p := make([]byte, n, n+1) // room for one byte: every payload has an address
	for j := range p {
		p[j] = byte(i*7 + j)
	}
	return p
}

func addr(p []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(p))) }

// TestLendingConformance holds every transport to one payload rule. A
// received payload is lent for the handler call, so a handler that copies
// receives every frame intact, in order, while the transport reuses what
// it lent. A sent payload comes back through the Releaser exactly once —
// on the in-process fabrics only after its handler has returned — and a
// payload whose Send failed never does.
func TestLendingConformance(t *testing.T) {
	const frames = 1000
	for _, f := range lendFabrics() {
		t.Run(f.name, func(t *testing.T) {
			from, to := f.pair(t)
			sent := make([][]byte, frames)
			for i := range sent {
				sent[i] = lendPayload(i)
			}
			var (
				mu       sync.Mutex
				got      [][]byte
				returned = map[uintptr]bool{} // payloads whose handler call has returned
				released = map[uintptr]int{}
				early    int // released before their handler returned
			)
			all := make(chan struct{})
			to.SetHandler(func(_ string, p []byte) {
				c := bytes.Clone(p)
				mu.Lock()
				defer mu.Unlock()
				got = append(got, c)
				returned[addr(p)] = true
				if len(got) == frames {
					close(all)
				}
			})
			release := func(p []byte) {
				mu.Lock()
				defer mu.Unlock()
				if f.inProcess && !returned[addr(p)] {
					early++
				}
				released[addr(p)]++
			}
			// The in-process fabrics release through the receiving node's
			// function; the others through the sender's.
			for _, tr := range []transport.Transport{from, to} {
				tr.(transport.Releaser).SetRelease(release)
			}

			refused := []byte("to nobody")
			if err := from.Send("nowhere", refused); err == nil {
				t.Fatal("a send to an unknown node was accepted")
			}
			for i, p := range sent {
				if err := from.Send(to.Local(), p); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			select {
			case <-all:
			case <-time.After(20 * time.Second):
				mu.Lock()
				t.Fatalf("%d of %d frames arrived", len(got), frames)
			}
			// A transport that writes releases after the write, which may
			// finish after the frame was read.
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				n := 0
				for _, p := range sent {
					n += min(released[addr(p)], 1)
				}
				mu.Unlock()
				if n == frames || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}

			mu.Lock()
			defer mu.Unlock()
			for i, p := range sent {
				if !bytes.Equal(got[i], p) {
					t.Fatalf("frame %d arrived as %d bytes, damaged or out of order; want %d", i, len(got[i]), len(p))
				}
				if k := released[addr(p)]; k != 1 {
					t.Errorf("frame %d (%d bytes) released %d times, want once", i, len(p), k)
				}
			}
			if early > 0 {
				t.Errorf("%d payloads released before their handler returned", early)
			}
			if k := released[addr(refused)]; k != 0 {
				t.Errorf("the payload whose Send failed was released %d times", k)
			}
		})
	}
}

// TestPendingKernelFrameIsCopied: a kernel frame for an application that is
// not launched yet waits in the kernel's queue, while later frames for
// another application reuse the connection's read buffer many times over;
// it must still arrive intact once the application installs its handler,
// so the queue holds a copy, never the slice the connection lent.
func TestPendingKernelFrameIsCopied(t *testing.T) {
	ka, kb := kernelPair(t)
	late := bytes.Repeat([]byte("pending "), 400)
	if err := ka.Transport("late").Send("kb", late); err != nil {
		t.Fatal(err)
	}
	const busy = 200 // 200 KB over the same connection: the read buffer wraps
	arrived := make(chan struct{}, busy)
	kb.Transport("busy").SetHandler(func(string, []byte) { arrived <- struct{}{} })
	for i := 0; i < busy; i++ {
		if err := ka.Transport("busy").Send("kb", bytes.Repeat([]byte{0xEE}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < busy; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d frames for the running application arrived", i, busy)
		}
	}
	if kb.Launched("late") {
		t.Fatal("the application was launched before it installed a handler")
	}
	var got []byte
	kb.Transport("late").SetHandler(func(_ string, p []byte) { got = bytes.Clone(p) }) // delivers the queue
	if !bytes.Equal(got, late) {
		t.Fatalf("the queued frame arrived as %d bytes starting %q; want its %d bytes intact", len(got), got[:min(len(got), 16)], len(late))
	}
}
