package tcptransport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestSimultaneousDialLosesNothing: two nodes dial each other at the same
// moment and each sends one frame at once. Whichever socket each side ends
// up sending on, the other side must be reading it: a side that lost the
// registration race used to close the socket it had dialed after its hello
// was out, which is the socket the peer had just adopted as its send path.
func TestSimultaneousDialLosesNothing(t *testing.T) {
	const rounds = 300
	for round := 0; round < rounds; round++ {
		a, b := rendezvousPair(t)
		fromA, fromB := make(chan []byte, 1), make(chan []byte, 1)
		b.SetHandler(func(_ string, p []byte) { fromA <- bytes.Clone(p) })
		a.SetHandler(func(_ string, p []byte) { fromB <- bytes.Clone(p) })
		crossSend(t, a, b, fromA, fromB)
		// Closed together: this test is about delivery, the next about Close.
		done := make(chan struct{})
		go func() { _ = a.Close(); close(done) }()
		_ = b.Close()
		<-done
	}
}

// TestLostDialRaceKeepsSocketReadable plays the simultaneous open move by
// move, with a hand-rolled peer standing in for node "a": a's dial reaches b
// and registers while b's own dial is still resolving, so b loses the race
// with its hello already out. A node in a's place that had not registered
// its own dial yet adopts the socket that hello arrived on as its send
// path — so b must go on reading it.
func TestLostDialRaceKeepsSocketReadable(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resolving, release := make(chan struct{}), make(chan struct{})
	b, err := Listen("b", "127.0.0.1:0", func(string) (string, error) {
		close(resolving)
		<-release
		return l.Addr().String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, p []byte) { got <- bytes.Clone(p) })

	// b starts a send: past its "no connection yet" check, not yet dialing.
	sent := make(chan error, 1)
	go func() { sent <- b.Send("a", []byte("b to a")) }()
	<-resolving
	// a's dial arrives and becomes b's registered path to a.
	x := rawSession(t, b.Addr(), "a", 1)
	waitFor(t, "b to register a's connection", 5*time.Second, func() bool { return b.SessionEpoch("a") == 1 })
	// b's dial goes out, says hello, and finds the other connection there.
	close(release)
	y, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	_ = y.SetDeadline(time.Now().Add(5 * time.Second))
	yr := testReader(y)
	if name, err := yr.next(); err != nil || string(name) != "b" {
		t.Fatalf("hello on b's dial: %q, %v", name, err)
	}
	if _, err := yr.next(); err != nil {
		t.Fatalf("epoch on b's dial: %v", err)
	}
	// b sends on the connection it registered ...
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	_ = x.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := testReader(x).next(); err != nil || string(f) != "b to a" {
		t.Fatalf("on a's dial: %q, %v", f, err)
	}
	// ... and a on the one b dialed, which b must not have closed.
	if err := writeFrame(y, []byte("a to b")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f) != "a to b" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the frame a wrote on the socket b dialed is lost: b closed it after its hello")
	}
}

// TestCloseDoesNotWaitForPeer: when two sockets join a pair of nodes, each
// side registered at most one of them as its send path and reads both.
// Close must end both readers itself — it used to close only registered
// connections and then wait for readers that only the peer's Close ends.
func TestCloseDoesNotWaitForPeer(t *testing.T) {
	closeSoon := func(t *testing.T, n *Node) {
		t.Helper()
		closed := make(chan error, 1)
		go func() { closed <- n.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("Close is waiting for sockets only the peer's Close ends")
		}
	}
	t.Run("two nodes", func(t *testing.T) {
		a, b := rendezvousPair(t)
		t.Cleanup(func() { _ = b.Close() })
		fromA, fromB := make(chan []byte, 1), make(chan []byte, 1)
		b.SetHandler(func(_ string, p []byte) { fromA <- bytes.Clone(p) })
		a.SetHandler(func(_ string, p []byte) { fromB <- bytes.Clone(p) })
		crossSend(t, a, b, fromA, fromB)
		if d := a.Stats().Dials + b.Stats().Dials; d != 2 {
			t.Fatalf("%d dials, want the double connection of a simultaneous open", d)
		}
		closeSoon(t, a) // b stays open
	})
	// The same with a hand-rolled peer, so that which socket is registered
	// is not left to the scheduler: b dials the peer, then the peer dials b.
	t.Run("scripted peer", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		b, err := Listen("b", "127.0.0.1:0", StaticResolver(map[string]string{"a": l.Addr().String()}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		got := make(chan []byte, 1)
		b.SetHandler(func(_ string, p []byte) { got <- bytes.Clone(p) })
		if err := b.Send("a", []byte("over b's dial")); err != nil {
			t.Fatal(err)
		}
		y, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer y.Close()
		x := rawSession(t, b.Addr(), "a", 1)
		if err := writeFrame(x, []byte("over a's dial")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got: // b is reading the second socket
		case <-time.After(5 * time.Second):
			t.Fatal("frame on the second socket never arrived")
		}
		closeSoon(t, b) // the peer keeps both sockets open
	})
}

// TestHostileHeaderAllocatesBounded: a peer that completes the handshake,
// claims a 1 GiB frame and goes away costs the receiver one read chunk, not
// the claimed size, and its connection is dropped.
func TestHostileHeaderAllocatesBounded(t *testing.T) {
	_, b := startPair(t)
	b.SetHandler(func(string, []byte) { t.Error("a frame was delivered") })
	c := rawSession(t, b.Addr(), "hostile", 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	header := []byte{0x80, 0x80, 0x80, 0x80, 0x04} // uvarint(1 << 30)
	if _, err := c.Write(append(header, "a few bytes, then nothing"...)); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The receiver gives up on the truncated frame and closes its end.
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read = %v, want EOF from the receiver dropping the connection", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Fatalf("a 5-byte header made the receiver allocate %d bytes", grew)
	}
}
