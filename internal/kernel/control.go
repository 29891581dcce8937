package kernel

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/transport/tcptransport"
)

// This file is the kernel's control plane: everything a kernel knows about a
// control kind is one row of ctlKinds. Receive dispatch (handleControl)
// indexes the table, and every control frame is built by sendControl, which
// refuses a kind without a row — so a kind without a row can be neither sent
// nor received.

// controlApp is the reserved application name carrying kernel control
// messages; user applications cannot collide with it because application
// names come from Go string literals and this one starts with a NUL byte.
const controlApp = "\x00dps-control"

// Control message kinds multiplexed on the controlApp frame. The numbers are
// frozen (ctl_freeze_test.go): a kernel of another version decodes them.
const (
	ctlRemap byte = 1
	// Heartbeat protocol (StartHeartbeat): kernels ping their name-server
	// peers, answer with pongs, and broadcast a death notice when a peer
	// goes silent, so every kernel's OnFailover fires — typically feeding
	// the engine's FailNode to recover the dead kernel's threads.
	ctlPing  byte = 2
	ctlPong  byte = 3
	ctlDeath byte = 4
	// Trace collection (OnTrace / CollectTrace): a collector asks every
	// kernel for the spans it buffered of one sampled call and assembles
	// the cluster-wide timeline.
	ctlTraceReq  byte = 5
	ctlTraceResp byte = 6
)

// ctlKind is one row of the control table.
type ctlKind struct {
	// name labels the kind; the freeze test pins it to the kind's number.
	name string
	// recv handles one received message; body follows the kind byte. A
	// malformed body is dropped: control messages are fire-and-forget.
	recv func(k *Kernel, src string, body []byte)
}

// ctlKinds is indexed by the kind byte; a byte with no row has a nil recv.
// It is filled by init because the handlers send through sendControl, which
// consults the table.
var ctlKinds [256]ctlKind

func init() {
	ctlKinds = [256]ctlKind{
		ctlRemap: {name: "remap", recv: (*Kernel).recvRemap},
		ctlPing: {name: "ping", recv: func(k *Kernel, src string, _ []byte) {
			// Answer so the prober can tell "alive" from "accepting but hung".
			_ = sendControl(k.node, src, ctlPong, nil)
		}},
		ctlPong:      {name: "pong", recv: (*Kernel).recvPong},
		ctlDeath:     {name: "death", recv: (*Kernel).recvDeath},
		ctlTraceReq:  {name: "trace request", recv: (*Kernel).recvTraceReq},
		ctlTraceResp: {name: "trace response", recv: (*Kernel).recvTraceResp},
	}
}

// handleControl dispatches one kernel control message. An empty payload and
// a kind without a row are dropped.
func (k *Kernel) handleControl(src string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if recv := ctlKinds[payload[0]].recv; recv != nil {
		recv(k, src, payload[1:])
	}
}

// sendControl sends one control message of kind to dst: the one place a
// control frame is built. A kind without a row is refused, since no kernel
// could dispatch it.
func sendControl(node *tcptransport.Node, dst string, kind byte, body []byte) error {
	if ctlKinds[kind].recv == nil {
		return fmt.Errorf("kernel: control kind %d has no row", kind)
	}
	return node.Send(dst, makeAppFrame(nil, controlApp, append([]byte{kind}, body...)))
}

// appendStrings appends each string length-prefixed.
func appendStrings(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// readStrings decodes one length-prefixed string into each dst.
func readStrings(b []byte, dst ...*string) error {
	for _, d := range dst {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return fmt.Errorf("kernel: malformed control message")
		}
		*d = string(b[n : n+int(l)])
		b = b[n+int(l):]
	}
	return nil
}

// RemapRequest asks a kernel to live-remap a thread collection of one of
// its applications: the named collection is remapped to the placement
// given in the paper's mapping-string syntax via the migration protocol
// (quiesce, state shipment, token forwarding) while the application keeps
// serving calls.
type RemapRequest struct {
	// App names the application instance on the target kernel.
	App string
	// Collection names the thread collection to remap.
	Collection string
	// Spec is the new placement in mapping-string syntax ("kernA*2 kernB").
	Spec string
}

// OnRemap installs the kernel's handler for live-remap control messages.
// The handler typically resolves the application and calls
// Collection.Remap; errors are logged by the handler itself (control
// messages are fire-and-forget, like the paper's kernel commands).
func (k *Kernel) OnRemap(fn func(RemapRequest) error) {
	k.mu.Lock()
	k.onRemap = fn
	k.mu.Unlock()
}

// SendRemap delivers a live-remap control message to the named kernel,
// resolving it through the name server. It returns once the message has
// been handed to the kernel's TCP endpoint; the remap itself runs
// asynchronously on the target.
func SendRemap(nsAddr, kernelName string, req RemapRequest) error {
	k, err := listen("remap-client", "127.0.0.1:0", nsAddr)
	if err != nil {
		return err
	}
	defer func() { _ = k.node.Close() }()
	return sendControl(k.node, kernelName, ctlRemap, appendStrings(nil, req.App, req.Collection, req.Spec))
}

func (k *Kernel) recvRemap(_ string, body []byte) {
	var req RemapRequest
	if readStrings(body, &req.App, &req.Collection, &req.Spec) != nil {
		return
	}
	k.mu.Lock()
	fn := k.onRemap
	k.mu.Unlock()
	if fn != nil {
		// Remap quiesces and waits for the handover; never block the
		// receive loop on it.
		go func() { _ = fn(req) }()
	}
}

func (k *Kernel) recvPong(src string, _ []byte) {
	k.mu.Lock()
	if k.lastSeen != nil {
		k.lastSeen[src] = time.Now()
	}
	k.mu.Unlock()
}

// recvDeath takes a peer's death notice: the dead kernel's name,
// length-prefixed. A notice naming nobody is malformed.
func (k *Kernel) recvDeath(_ string, body []byte) {
	var peer string
	if readStrings(body, &peer) != nil || peer == "" {
		return
	}
	k.peerDied(peer)
}
