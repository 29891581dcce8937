package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/ft"
	"repro/internal/core/place"
	"repro/internal/serial"
	"repro/internal/transport"
)

// This file is the engine's link layer: envelope framing, token
// serialization and buffer pooling over a transport.Transport. It owns the
// decision between same-address-space pointer handoff and serialized
// network transfer (paper §4) and recycles wire buffers per the transport
// ownership contract. What differs between message kinds lives in the kind
// table (kinds.go); the codecs live in wire.go and the pools in pool.go.
//
// Outbound, every kind makes the local / colocated / remote choice in route
// and reaches the transport through transmit. Inbound, handle dispatches
// through the table into the runtime. Tokens and group-ends are delivered
// with the transport-level source node and their lane, read from the kind
// byte's flagForwarded — the placement layer's fence gates are per sender
// and never hold what a relay forwarded (fences themselves name their
// original sender in the message, as forwarding rewrites the transport
// source).
//
// The runtime's linkDown and linkSuspect are the fault-tolerance hooks:
// traffic to a node declared dead is suppressed (retained copies replay
// during recovery), and a transport send failure is offered to the failure
// detector before it may surface as an application failure — a send error
// to a dead or removed peer must never be dropped on the floor.

// link frames and serializes outbound messages and decodes inbound ones.
type link struct {
	tr    transport.Transport
	reg   *serial.Registry
	rt    *Runtime // the node runtime this link serves
	name  string
	force bool // ForceSerialize: marshal even same-node transfers
	ftOn  bool // fault tolerance enabled: consult linkDown/linkSuspect

	// Colocated fast path: co attests that a destination's transport
	// endpoint shares this address space (nil: the transport cannot tell, or
	// ForceSerialize). Resolved peer runtimes are cached; misses are not,
	// because nodes attach over time.
	co     transport.Colocated
	coPeer sync.Map // dst -> *Runtime

	// ck corks every token and result an operation execution sends
	// (txCorked), so that what a drainer sends between two idle steps
	// leaves in one write per destination (see Ctx.uncork); nil when the
	// transport cannot.
	ck transport.Corker
}

func (l *link) init(rt *Runtime, tr transport.Transport, cfg *Config) {
	l.tr = tr
	l.reg = rt.app.reg
	l.rt = rt
	l.name = tr.Local()
	l.force = cfg.ForceSerialize
	l.ftOn = rt.app.ftOn
	if !cfg.ForceSerialize {
		l.co, _ = tr.(transport.Colocated)
	}
	l.ck, _ = tr.(transport.Corker)
}

// --- outbound: route, transmit --------------------------------------------

// route makes the local / colocated / remote choice for one message of kind
// to dst. A non-nil runtime takes the message by pointer: this node's own,
// or that of a colocated peer — a runtime of this application whose
// transport endpoint shares our address space (the paper's same-node
// shortcut extended to same-process lanes; every kind to such a destination
// takes the shortcut or none does, since mixing would reorder the wire
// stream against the direct deliveries). Otherwise wire says whether to
// serialize the message onto the transport; false means dst is declared
// dead and the kind is one the table suppresses.
func (l *link) route(kind byte, dst string) (rt *Runtime, wire bool) {
	if dst == l.name {
		return l.rt, false
	}
	if l.suppressed(kind, dst) {
		return nil, false
	}
	if l.co != nil {
		if v, ok := l.coPeer.Load(dst); ok {
			return v.(*Runtime), false
		}
		if l.co.Colocated(dst) {
			// A cross-app fabric is safe: an unknown name yields no shortcut.
			if peer, ok := l.rt.app.runtime(dst); ok {
				l.coPeer.Store(dst, peer)
				return peer, false
			}
		}
	}
	return nil, true
}

// suppressed reports whether a message of kind toward dst must be dropped
// because a node has been declared dead. It is a branch on a local bool
// while fault tolerance is off.
func (l *link) suppressed(kind byte, dst string) bool {
	return l.ftOn && wireKinds[kind&kindMask].suppress && l.rt.linkDown(dst)
}

// txMode says how transmit hands a frame to the transport.
type txMode uint8

const (
	txSend   txMode = iota // Send
	txCorked               // SendCorked, if l.ck: an execution's token or result
)

// transmit is the link's one exit to the transport: every frame, of every
// kind, leaves through it, which is what makes three properties hold by
// construction. Wire order equals send order: each frame goes straight to
// the transport, and a corked frame keeps its place in the transport's own
// queue (transport.Corker is FIFO with Send; txCorked is txSend on a link
// that does not cork). It reports whether the frame waits corked for an
// uncork. Stats.BytesSent counts every frame handed to the transport. And a
// frame the transport refused returns to the wire pool
// (transports release ownership on error; an accepted frame is the
// transport's, which returns it through transport.Releaser or hands it to
// the receiving link) before the failure is routed by the kind's policy —
// past the failure detector, which absorbs faults of peers it is about to
// declare dead (the retained copies replay during recovery). The frame is
// sent once: a transport retries its transient faults itself, so its error
// is final (transport.Transport.Send).
func (l *link) transmit(dst string, buf []byte, tx txMode) (corked bool) {
	if tx == txCorked && l.ck == nil {
		tx = txSend
	}
	atomic.AddInt64(&l.rt.stats.BytesSent, int64(len(buf)))
	var err error
	if tx == txCorked {
		err = l.ck.SendCorked(dst, buf)
	} else {
		err = l.tr.Send(dst, buf)
	}
	if err == nil {
		return tx == txCorked
	}
	policy := wireKinds[buf[0]&kindMask].fail
	putWireBuf(buf)
	if l.ftOn && l.rt.linkSuspect(dst, err) {
		return
	}
	switch policy {
	case failPanic:
		panic(opError{err})
	case failLink:
		l.rt.linkFail(err)
	}
	return false
}

// --- outbound: one sender per kind ----------------------------------------

// frameHeadCap is the stack room a sender builds a frame's header in before
// it draws the frame's buffer: a token's head and header with a few frames
// fits. A longer one spills to the heap.
const frameHeadCap = 256

// sendClock is the send clock a frame of a token sampled under traceID
// carries: none for an unsampled one.
func sendClock(traceID uint64) int64 {
	if traceID == 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// tokenFrame returns env's complete single-token wire frame in a wire
// buffer drawn for its exact length: its head and header (appendToken) and
// the serialized token, a single copy straight behind them. Freshly
// stamped envelopes reuse the retention log's encoding — the wire message
// byte for byte (ftOutbound) — instead of serializing the token a second
// time; copied, because the transport takes ownership of what it sends,
// with flagForwarded set when a relay re-sends it.
func (l *link) tokenFrame(env *envelope, lane place.Lane) ([]byte, error) {
	if env.ftWire != nil {
		buf := append(getWireBuf(&l.rt.stats, len(env.ftWire)), env.ftWire...)
		if lane == place.Forwarded {
			buf[0] |= flagForwarded
		}
		return buf, nil
	}
	var scratch [frameHeadCap]byte
	head := appendToken(scratch[:0], env, lane, sendClock(env.TraceID))
	enc, err := l.reg.Prepare(env.Token)
	if err != nil {
		return nil, err
	}
	return enc.AppendTo(append(getWireBuf(&l.rt.stats, len(head)+enc.Len()), head...)), nil
}

// sendToken moves the token env carries to the node hosting its destination
// thread: by pointer inside an address space, bypassing the communication
// layer (paper §4), serialized into a pooled wire buffer otherwise. The
// envelope is borrowed: sendToken only reads it, and the caller keeps it —
// an execution's post builds it on its stack (Ctx.postOut) — so a by-pointer
// delivery hands the receiving runtime a pooled copy. lane is
// place.Forwarded when a relay re-sends an arrival to the thread's current
// owner; tx is txCorked for an operation execution's post, txSend
// otherwise. It reports whether the frame waits corked in the transport.
func (l *link) sendToken(env *envelope, dst string, lane place.Lane, tx txMode) bool {
	stats := &l.rt.stats
	atomic.AddInt64(&stats.TokensPosted, 1)
	rt, wire := l.route(msgToken, dst)
	if rt != nil {
		tok := env.Token
		if l.force {
			// ForceSerialize: full marshalling, then local delivery.
			var err error
			if tok, err = l.roundTrip(tok); err != nil {
				panic(opError{err})
			}
		} else {
			atomic.AddInt64(&stats.TokensLocal, 1)
		}
		d := getEnvelope()
		*d = *env
		d.Token = tok
		d.ftWire = nil // the retention log keeps its own copy
		rt.deliverToken(d, l.name, lane)
		return false
	}
	if !wire {
		return false
	}
	buf, err := l.tokenFrame(env, lane)
	if err != nil {
		panic(opError{fmt.Errorf("dps: cannot serialize %T: %w", env.Token, err)})
	}
	atomic.AddInt64(&stats.TokensRemote, 1)
	return l.transmit(dst, buf, tx)
}

// sendGroupEnd announces a completed group's total to the paired merge's
// node, behind the group's tokens.
func (l *link) sendGroupEnd(dst string, m *groupEndMsg, lane place.Lane) {
	rt, wire := l.route(msgGroupEnd, dst)
	if rt != nil {
		rt.handleGroupEnd(m, l.name, lane)
		return
	}
	if !wire {
		return
	}
	l.transmit(dst, appendGroupEnd(getWireBuf(&l.rt.stats, 0), m, lane), txSend)
}

// sendResult delivers a graph's final output to the calling node, corked
// like the token it is (the executing drainer lets it go when its queue runs
// dry), and reports whether it waits corked.
func (l *link) sendResult(env *envelope, tok Token) bool {
	rt, wire := l.route(msgResult, env.CallOrigin.name)
	if rt != nil {
		if l.force {
			out, err := l.roundTrip(tok)
			if err != nil {
				panic(opError{err})
			}
			tok = out
		}
		rt.deliverResult(env.CallID, tok)
		return false
	}
	if !wire {
		return false
	}
	var scratch [1 + binary.MaxVarintLen64]byte
	head := appendResultHeader(scratch[:0], env.CallID)
	enc, err := l.reg.Prepare(tok)
	if err != nil {
		panic(opError{fmt.Errorf("dps: cannot serialize result: %w", err)})
	}
	buf := append(getWireBuf(&l.rt.stats, len(head)+enc.Len()), head...)
	return l.transmit(env.CallOrigin.name, enc.AppendTo(buf), txCorked)
}

// sendAck returns a consumption acknowledgement to the split-side node.
func (l *link) sendAck(dst string, m ackMsg) {
	if rt, wire := l.route(msgAck, dst); rt != nil {
		rt.handleAck(m)
	} else if wire {
		l.transmit(dst, appendAck(getWireBuf(&l.rt.stats, 0), m), txSend)
	}
}

// sendRehome ships the state a thread's new owner installs it from.
func (l *link) sendRehome(dst string, m *rehomeMsg) {
	if rt, wire := l.route(m.kind(), dst); rt != nil {
		rt.installRehomed(m, l.name)
	} else if wire {
		l.transmit(dst, appendRehome(getWireBuf(&l.rt.stats, 0), m), txSend)
	}
}

// sendFence emits the closing fence of a live rehome's flip.
func (l *link) sendFence(dst string, m *fenceMsg) {
	if rt, wire := l.route(msgFence, dst); rt != nil {
		rt.deliverFence(m)
	} else if wire {
		l.transmit(dst, appendFence(getWireBuf(&l.rt.stats, 0), m), txSend)
	}
}

// sendCheckpoint ships a checkpoint record to the store node.
func (l *link) sendCheckpoint(dst string, rec *ft.Record) {
	if rt, wire := l.route(msgCheckpoint, dst); rt != nil {
		rt.commitCheckpoint(rec)
	} else if wire {
		l.transmit(dst, appendCheckpoint(getWireBuf(&l.rt.stats, 0), rec), txSend)
	}
}

// sendCut tells a sender stream's node that retained entries are durable.
func (l *link) sendCut(dst string, m cutMsg) {
	if rt, wire := l.route(msgCut, dst); rt != nil {
		rt.applyCut(m)
	} else if wire {
		l.transmit(dst, appendCut(getWireBuf(&l.rt.stats, 0), m), txSend)
	}
}

// sendDeath broadcasts a death notice.
func (l *link) sendDeath(dst string, m deathMsg) {
	if rt, wire := l.route(msgDeath, dst); rt != nil {
		rt.handleDeath(m, l.name)
	} else if wire {
		l.transmit(dst, appendDeath(getWireBuf(&l.rt.stats, 0), m), txSend)
	}
}

// roundTrip marshals and unmarshals a token, exercising the full
// serialization path for same-node transfers (the ForceSerialize debugging
// mode). The token is a copy, so the buffer goes back to the wire pool.
func (l *link) roundTrip(tok Token) (Token, error) {
	payload, err := l.reg.Marshal(tok)
	if err != nil {
		return nil, fmt.Errorf("dps: cannot serialize %T: %w", tok, err)
	}
	out, _, err := l.reg.Unmarshal(payload)
	if err != nil {
		return nil, fmt.Errorf("dps: cannot deserialize %T: %w", tok, err)
	}
	putWireBuf(payload)
	return out, nil
}

// --- inbound --------------------------------------------------------------

// handle is the transport receive entry point. The frame is lent for the
// call (transport.Handler): every kind's receive function copies out
// whatever it keeps, and the transport reuses or releases the frame once
// handle returns. A frame that fails to decode fails the application.
func (l *link) handle(src string, frame []byte) {
	if len(frame) == 0 {
		l.rt.linkFail(fmt.Errorf("dps: empty message from %q", src))
		return
	}
	k := kindOf(frame[0])
	if k == nil {
		l.rt.linkFail(fmt.Errorf("dps: unknown message kind %d from %q", frame[0], src))
		return
	}
	if err := k.recv(l, src, frame); err != nil {
		l.rt.linkFail(fmt.Errorf("dps: bad %s from %q: %w", k.name, src, err))
	}
}

// laneOf is the lane a token or group-end frame arrives on.
func laneOf(kind byte) place.Lane {
	if kind&flagForwarded != 0 {
		return place.Forwarded
	}
	return place.Direct
}

// recvToken is the one decode-unmarshal-deliver path of every token on the
// wire, whatever flags its kind byte carries. A traced frame first records
// the receiver-side wire span: sender transmit clock to receiver decode
// clock. Across processes the two clocks are not synchronized, so the
// duration carries their skew; within one process (the test and bench
// deployments) they agree. The token is a copy: the frame is only lent.
func (l *link) recvToken(src string, frame []byte) error {
	env, sentNs, err := decodeToken(frame, l.rt.app.ids.load())
	if err != nil {
		return err
	}
	if env.TraceID != 0 {
		l.rt.traceSpan(env.TraceID, "wire", src, sentNs, max(time.Now().UnixNano()-sentNs, 0))
	}
	tok, _, err := l.reg.Unmarshal(env.Payload)
	if err != nil {
		putEnvelope(env)
		return fmt.Errorf("cannot deserialize token: %w", err)
	}
	env.Token = tok
	env.Payload = nil // aliases the wire buffer
	l.rt.deliverToken(env, src, laneOf(frame[0]))
	return nil
}

func (l *link) recvGroupEnd(src string, frame []byte) error {
	m, err := decodeGroupEnd(frame, l.rt.app.ids.load())
	if err == nil {
		l.rt.handleGroupEnd(m, src, laneOf(frame[0]))
	}
	return err
}

// recvRehome receives either framing of a rehome message. A live move's
// state aliases the frame; the install deserializes it synchronously, while
// the frame is still lent.
func (l *link) recvRehome(src string, frame []byte) error {
	m, err := decodeRehome(frame[0], frame[1:])
	if err == nil {
		l.rt.installRehomed(m, src)
	}
	return err
}

func (l *link) recvResult(src string, frame []byte) error {
	m, err := decodeResult(frame[1:])
	if err != nil {
		return err
	}
	tok, _, err := l.reg.Unmarshal(m.Payload)
	if err != nil {
		return fmt.Errorf("cannot deserialize result: %w", err)
	}
	l.rt.deliverResult(m.CallID, tok)
	return nil
}
