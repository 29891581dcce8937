//go:build linux

package tcptransport

import (
	"net"
	"syscall"
)

// liveness reports whether the peer has already shut down a connection (a
// FIN or RST is pending in our kernel). A write into such a socket lands in
// the send buffer and reports success although the peer can never read it,
// so every write is preceded by this probe — a non-consuming MSG_PEEK that
// never races the reader goroutine (peeking does not steal bytes from a
// blocked recv). Any frame written after the peer's shutdown was unreadable
// anyway, so failing the send here cannot duplicate a delivered frame.
//
// The raw connection and the closure are made once per connection; a probe
// allocates nothing. Probes of one connection are serialized by whoever
// owns the destination's socket.
type liveness struct {
	rc   syscall.RawConn
	peek func(fd uintptr)
	gone bool
}

// arm prepares the probe of c. A connection without a file descriptor
// (tests script some) is never reported dead.
func (l *liveness) arm(c net.Conn) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		l.gone = true
		return
	}
	l.rc = rc
	l.peek = func(fd uintptr) {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR:
			// Nothing pending: alive.
		case err != nil:
			l.gone = true // ECONNRESET and friends
		case n == 0:
			l.gone = true // orderly EOF pending
		}
	}
}

func (l *liveness) dead() bool {
	if l.rc == nil {
		return l.gone
	}
	return l.rc.Control(l.peek) != nil || l.gone
}
