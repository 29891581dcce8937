package core

import "repro/internal/core/ft"

// This file is the engine's wire-kind table: everything the link layer
// knows about a message kind beyond its byte encoding (wire.go) is one row
// here, and the receive dispatch (link.handle), the outbound route choice
// (link.route) and the transmit path's failure handling (link.transmit) all
// read it. A kind without a row cannot be sent or received, so the
// properties below hold by construction.

// spanRule is a kind's observability decision: how a sampled call passing
// through the kind shows up in its timeline.
type spanRule uint8

const (
	_            spanRule = iota
	spanDispatch          // delivers into instrumented dispatch (queue/execute spans per token, the result span at call completion)
	spanNone              // records nothing; the row's why says why the kind needs no span
)

// failPolicy is what becomes of a transport send failure.
type failPolicy uint8

const (
	_ failPolicy = iota
	// failPanic raises an opError in the sending goroutine unless the failure
	// detector absorbs the fault: the sender is an operation execution, which
	// unwinds exactly as for a failure inside its body.
	failPanic
	// failLink fails the application through linkFail unless the failure
	// detector absorbs the fault.
	failLink
	// failDrop offers the fault to the failure detector and drops the
	// message: best-effort notices.
	failDrop
)

// wireKind is one row of the table.
type wireKind struct {
	// name labels the kind in diagnostics ("dps: bad <name> from ...").
	name string
	// recv decodes one received frame (kind byte included) and delivers the
	// message to the runtime, copying out whatever the message keeps: the
	// frame returns to the wire pool when recv does (link.handle).
	recv func(l *link, src string, frame []byte) error
	// flags are the flag bits (wire.go) the kind byte may carry; a frame
	// with any other is refused like a byte without a row (kindOf).
	flags byte
	span  spanRule
	why   string
	// suppress: a destination declared dead gets none of this kind (the
	// retained copies replay during recovery, or nobody is left to care).
	suppress bool
	// fail is zero for a kind the link receives but never sends.
	fail failPolicy
}

// wireKinds is indexed by a kind byte's kind bits; a kind with no row has a
// nil recv. It is filled by init because the receive functions consult the
// table themselves.
var wireKinds [kindMask + 1]wireKind

// kindOf returns the row of a frame's first byte b, or nil when its kind has
// no row or b carries a flag the kind does not accept.
func kindOf(b byte) *wireKind {
	k := &wireKinds[b&kindMask]
	if k.recv == nil || b&^kindMask&^k.flags != 0 {
		return nil
	}
	return k
}

func init() {
	wireKinds = [kindMask + 1]wireKind{
		msgToken: {
			// A traced token's receive also records its wire span.
			name: "token", recv: (*link).recvToken,
			flags: flagStamped | flagTraced | flagForwarded,
			span:  spanDispatch, suppress: true, fail: failPanic,
		},
		msgGroupEnd: {
			name: "group-end", recv: (*link).recvGroupEnd,
			flags: flagStamped | flagForwarded,
			span:  spanNone, why: "group accounting only; the group's tokens carry the trace",
			suppress: true, fail: failPanic,
		},
		msgAck: {
			name: "ack",
			recv: func(l *link, src string, frame []byte) error {
				m, err := decodeAck(frame[1:])
				if err == nil {
					l.rt.handleAck(m)
				}
				return err
			},
			span: spanNone, why: "flow-control ack, no token aboard",
			// The split side died with its window state; recovery replays the
			// group from its origin's retained log.
			suppress: true, fail: failLink,
		},
		msgResult: {
			name: "result", recv: (*link).recvResult,
			span: spanDispatch,
			// The caller's node died; nobody is waiting for the result.
			suppress: true, fail: failPanic,
		},
		msgMigrate: {
			name: "migration envelope", recv: (*link).recvRehome,
			span: spanNone, why: "state handoff; the old owner records forward spans at re-send",
			// The end a failed ship blames fails over (rehome gives up on
			// it), or without fault tolerance the application fails.
			fail: failLink,
		},
		msgFence: {
			name: "fence",
			recv: func(l *link, src string, frame []byte) error {
				m, err := decodeFence(frame[1:])
				if err == nil {
					l.rt.deliverFence(m)
				}
				return err
			},
			span: spanNone, why: "remap handshake control message",
			fail: failLink,
		},
		msgCheckpoint: {
			name: "checkpoint",
			recv: func(l *link, src string, frame []byte) error {
				// DecodeRecord copies every byte slice out of the frame.
				rec, err := ft.DecodeRecord(frame[1:])
				if err == nil {
					l.rt.commitCheckpoint(rec)
				}
				return err
			},
			span: spanNone, why: "checkpoint record in transit to the store",
			// A lost checkpoint merely leaves the previous one authoritative.
			suppress: true, fail: failLink,
		},
		msgReplay: {
			name: "recovery envelope", recv: (*link).recvRehome,
			span: spanNone, why: "replay spans are recorded by the resending master",
			fail: failLink,
		},
		msgCut: {
			name: "log cut",
			recv: func(l *link, src string, frame []byte) error {
				m, err := decodeCut(frame[1:])
				if err == nil {
					l.rt.applyCut(m)
				}
				return err
			},
			span: spanNone, why: "log-truncation control message",
			// A lost cut only delays truncation until the next one.
			suppress: true, fail: failLink,
		},
		msgDeath: {
			name: "death notice",
			recv: func(l *link, src string, frame []byte) error {
				m, err := decodeDeath(frame[1:])
				if err == nil {
					l.rt.handleDeath(m, src)
				}
				return err
			},
			span: spanNone, why: "failure broadcast, not part of any call",
			fail: failDrop,
		},
		msgPing: {
			// Receipt is the answer (detection is send-error driven). The
			// probe is linkSuspect's self-send straight to the transport; the
			// link never sends it, so the row has no fail policy.
			name: "ping",
			recv: func(*link, string, []byte) error { return nil },
			span: spanNone, why: "probe frame carries nothing",
		},
	}
}
