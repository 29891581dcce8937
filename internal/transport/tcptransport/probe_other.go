//go:build !linux

package tcptransport

import "net"

// liveness is a no-op where the MSG_PEEK probe is not implemented; the
// retry loop then relies on write errors alone.
type liveness struct{}

func (*liveness) arm(net.Conn) {}
func (*liveness) dead() bool   { return false }
