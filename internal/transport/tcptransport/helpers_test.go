package tcptransport

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeFrame writes one frame the way a hand-rolled peer would.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(nil, payload))
	return err
}

// testReader parses the frames of r as a connection's reader does.
func testReader(r io.Reader) *frameReader { return newFrameReader(r, new(atomic.Int64)) }

// rawSession dials addr as a hand-rolled peer and completes the handshake.
func rawSession(t *testing.T, addr, name string, epoch uint64) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	for _, f := range [][]byte{[]byte(name), binary.AppendUvarint(nil, epoch)} {
		if err := writeFrame(c, f); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// seqFrame is a test payload carrying a lane and a sequence number, padded
// to size bytes.
func seqFrame(lane, seq uint32, size int) []byte {
	p := make([]byte, max(size, 8))
	binary.BigEndian.PutUint32(p, lane)
	binary.BigEndian.PutUint32(p[4:], seq)
	return p
}

func parseSeqFrame(p []byte) (lane, seq uint32) {
	return binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:])
}

// rendezvousPair starts nodes "a" and "b" whose first resolutions of each
// other wait until both are under way, so both dials are in flight before
// either connection exists — the simultaneous open.
func rendezvousPair(t *testing.T, opts ...Option) (a, b *Node) {
	t.Helper()
	var (
		table  = map[string]string{}
		mu     sync.Mutex
		both   sync.WaitGroup
		firstA sync.Once // the first lookup of "a", made by b
		firstB sync.Once
	)
	both.Add(2)
	resolve := func(name string) (string, error) {
		first := &firstA
		if name == "b" {
			first = &firstB
		}
		first.Do(func() {
			both.Done()
			both.Wait()
		})
		mu.Lock()
		defer mu.Unlock()
		return table[name], nil
	}
	var err error
	if a, err = Listen("a", "127.0.0.1:0", resolve, opts...); err != nil {
		t.Fatal(err)
	}
	if b, err = Listen("b", "127.0.0.1:0", resolve, opts...); err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	mu.Lock()
	table["a"], table["b"] = a.Addr(), b.Addr()
	mu.Unlock()
	return a, b
}

// crossSend sends one frame each way at once and waits for both to arrive.
func crossSend(t *testing.T, a, b *Node, fromA, fromB <-chan []byte) {
	t.Helper()
	errs := make(chan error, 2)
	go func() { errs <- a.Send("b", []byte("from a")) }()
	go func() { errs <- b.Send("a", []byte("from b")) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for _, want := range []struct {
		ch   <-chan []byte
		text string
	}{{fromA, "from a"}, {fromB, "from b"}} {
		select {
		case got := <-want.ch:
			if string(got) != want.text {
				t.Fatalf("got %q, want %q", got, want.text)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("frame %q lost: both Sends returned nil and it never arrived", want.text)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
