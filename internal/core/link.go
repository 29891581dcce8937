package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
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
// with the transport-level source node and their lane — the placement
// layer's fence gates are per sender and never hold what a relay forwarded
// (fences themselves name their original sender in the message, as
// forwarding rewrites the transport source).
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
	force bool          // ForceSerialize: marshal even same-node transfers
	ftOn  bool          // fault tolerance enabled: consult linkDown/linkSuspect
	grace time.Duration // SuspectGrace: retry window for failing sends

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
	l.grace = cfg.SuspectGrace
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
	return l.ftOn && wireKinds[kind].suppress && l.rt.linkDown(dst)
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
// declare dead (the retained copies replay during recovery).
func (l *link) transmit(dst string, buf []byte, tx txMode) (corked bool) {
	if tx == txCorked && l.ck == nil {
		tx = txSend
	}
	atomic.AddInt64(&l.rt.stats.BytesSent, int64(len(buf)))
	err := l.trSend(dst, buf, tx == txCorked)
	if err == nil {
		return tx == txCorked
	}
	policy := wireKinds[buf[0]].fail
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

// Grace retry tuning: first backoff and cap. The overall window is
// Config.SuspectGrace.
const (
	graceRetryBase = time.Millisecond
	graceRetryCap  = 50 * time.Millisecond
)

// trSend hands one frame to the transport, corked if cork is set, retrying
// transient failures (uncorked) with capped exponential backoff and jitter
// until the suspect-grace window closes. On success the payload's ownership has transferred to the
// transport; on error it remains with the caller (transports release
// ownership on failure), which is what makes retrying the same buffer
// sound. A destination declared dead mid-retry aborts the loop — the
// failure detector already owns the fault, and transmit absorbs the error
// so the retained copy replays.
//
// Successful sends take the single branch on the error and pay nothing
// else; the grace machinery only runs once a send has already failed.
// Sequenced posts hold their route lock across the retries, so the grace
// window also bounds how long one fault can stall a route.
func (l *link) trSend(dst string, buf []byte, cork bool) error {
	var err error
	if cork {
		err = l.ck.SendCorked(dst, buf)
	} else {
		err = l.tr.Send(dst, buf)
	}
	if err == nil || l.grace <= 0 {
		return err
	}
	deadline := time.Now().Add(l.grace)
	backoff := graceRetryBase
	for {
		if l.ftOn && l.rt.linkDown(dst) {
			return err
		}
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if time.Now().Add(d).After(deadline) {
			return err
		}
		time.Sleep(d)
		if backoff < graceRetryCap {
			backoff *= 2
		}
		atomic.AddInt64(&l.rt.stats.SendRetries, 1)
		if err = l.tr.Send(dst, buf); err == nil {
			return nil
		}
	}
}

// --- outbound: one sender per kind ----------------------------------------

// frameHeadCap is the stack room a sender builds a frame's header in before
// it draws the frame's buffer: an envelope header with a few frames, behind
// a traced wrapper and an FT stamp, fits. A longer one spills to the heap.
const frameHeadCap = 256

// appendTokenHead appends the framing env's serialized token travels
// behind: the traced wrapper when the envelope is sampled, then the
// sequenced or plain envelope header.
func appendTokenHead(b []byte, env *envelope) []byte {
	if env.TraceID != 0 {
		b = appendTracedHeader(b, env.TraceID, time.Now().UnixNano())
	}
	if env.FTSeq > 0 {
		return appendTokenFT(b, env)
	}
	return appendEnvelopeHeader(b, env)
}

// tokenFrame returns env's complete single-token wire frame in a wire
// buffer drawn for its exact length: the forwarded wrapper when a relay
// re-sends it, then the token's head and the serialized token (a single
// copy, straight behind the header). Freshly stamped envelopes reuse the
// retention log's encoding — the wire message byte for byte, which already
// carries the traced wrapper when sampled (ftOutbound) — instead of
// serializing the token a second time; copied, because the transport takes
// ownership of what it sends.
func (l *link) tokenFrame(env *envelope, lane place.Lane) ([]byte, error) {
	var scratch [frameHeadCap]byte
	head := scratch[:0]
	if lane == place.Forwarded {
		head = append(head, msgForwarded)
	}
	if env.ftWire != nil {
		buf := append(getWireBuf(&l.rt.stats, len(head)+len(env.ftWire)), head...)
		return append(buf, env.ftWire...), nil
	}
	head = appendTokenHead(head, env)
	enc, err := l.reg.Prepare(env.Token)
	if err != nil {
		return nil, err
	}
	return enc.AppendTo(append(getWireBuf(&l.rt.stats, len(head)+enc.Len()), head...)), nil
}

// sendToken moves an envelope to the node hosting its destination thread:
// by pointer inside an address space, bypassing the communication layer
// (paper §4), serialized into a pooled wire buffer otherwise. The envelope
// is consumed either way. lane is place.Forwarded when a relay re-sends an
// arrival to the thread's current owner; tx is txCorked for an operation
// execution's post, txSend otherwise. It reports whether the frame waits
// corked in the transport.
func (l *link) sendToken(env *envelope, dst string, lane place.Lane, tx txMode) bool {
	stats := &l.rt.stats
	atomic.AddInt64(&stats.TokensPosted, 1)
	rt, wire := l.route(msgToken, dst)
	if rt != nil {
		if l.force {
			// ForceSerialize: full marshalling, then local delivery.
			tok, err := l.roundTrip(env.Token)
			if err != nil {
				panic(opError{err})
			}
			env.Token = tok
		} else {
			atomic.AddInt64(&stats.TokensLocal, 1)
			env.ftWire = nil // the retention log keeps its own copy
		}
		rt.deliverToken(env, l.name, lane)
		return false
	}
	if !wire {
		putEnvelope(env)
		return false
	}
	buf, err := l.tokenFrame(env, lane)
	if err != nil {
		panic(opError{fmt.Errorf("dps: cannot serialize %T: %w", env.Token, err)})
	}
	atomic.AddInt64(&stats.TokensRemote, 1)
	putEnvelope(env)
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
	buf := getWireBuf(&l.rt.stats, 0)
	if lane == place.Forwarded {
		buf = append(buf, msgForwarded)
	}
	if m.FTSeq > 0 {
		buf = appendGroupEndFT(buf, m)
	} else {
		buf = appendGroupEnd(buf, m)
	}
	l.transmit(dst, buf, txSend)
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
// mode). The token is a copy, so the buffer goes to the wire pool like a
// received frame.
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

// handle is the transport receive entry point. Per the transport ownership
// contract the frame belongs to this handler once invoked, and every kind's
// receive function copies out whatever it keeps, so the frame returns to
// the wire pool here once it is decoded. A frame that fails to decode fails
// the application and is left to the collector.
func (l *link) handle(src string, frame []byte) {
	if len(frame) == 0 {
		l.rt.linkFail(fmt.Errorf("dps: empty message from %q", src))
		return
	}
	k := &wireKinds[frame[0]]
	if k.recv == nil {
		l.rt.linkFail(fmt.Errorf("dps: unknown message kind %d from %q", frame[0], src))
		return
	}
	if err := k.recv(l, src, frame); err != nil {
		l.rt.linkFail(fmt.Errorf("dps: bad %s from %q: %w", k.name, src, err))
		return
	}
	putWireBuf(frame)
}

// recvToken is the one decode-unmarshal-deliver path of every token on the
// wire: alone in a frame, or inside a traced or forwarded wrapper. body is the envelope header and serialized token;
// stream/seq, traceID and lane are what the framing around it carried. The
// token is a copy: handle recycles the frame body lies in.
func (l *link) recvToken(src string, stream ft.Stream, seq, traceID uint64, lane place.Lane, body []byte) error {
	env, err := decodeEnvelope(body, l.rt.app.ids.load())
	if err != nil {
		return err
	}
	tok, _, err := l.reg.Unmarshal(env.Payload)
	if err != nil {
		putEnvelope(env)
		return fmt.Errorf("cannot deserialize token: %w", err)
	}
	env.Token = tok
	env.Payload = nil // aliases the wire buffer
	env.FTStream, env.FTSeq, env.TraceID = stream, seq, traceID
	l.rt.deliverToken(env, src, lane)
	return nil
}

// readStamp splits the single frame of a token or group-end into its
// fault-tolerance stamp (zero unless the kind is sequenced) and body.
func readStamp(frame []byte) (stream ft.Stream, seq uint64, body []byte, err error) {
	if wireKinds[frame[0]].sequenced {
		return readFTStamp(frame[1:])
	}
	return ft.Stream{}, 0, frame[1:], nil
}

func (l *link) recvLone(src string, frame []byte) error {
	return l.recvFrame(src, 0, place.Direct, frame)
}

// recvFrame receives the single frame of a token or group-end, which may
// sit inside wrappers.
func (l *link) recvFrame(src string, traceID uint64, lane place.Lane, frame []byte) error {
	stream, seq, body, err := readStamp(frame)
	if err != nil {
		return err
	}
	if frame[0] == msgGroupEnd || frame[0] == msgGroupEndFT {
		return l.recvGroupEnd(src, stream, seq, lane, body)
	}
	return l.recvToken(src, stream, seq, traceID, lane, body)
}

func (l *link) recvTraced(src string, frame []byte) error {
	return l.recvTracedFrame(src, place.Direct, frame)
}

// recvTracedFrame unwraps a sampled token's frame and records the
// receiver-side wire span: sender transmit clock to receiver decode clock.
// Across processes the two clocks are not synchronized, so the duration
// carries their skew; within one process (the test and bench deployments)
// they agree.
func (l *link) recvTracedFrame(src string, lane place.Lane, traced []byte) error {
	traceID, sentNs, inner, err := decodeTracedHeader(traced[1:])
	if err != nil {
		return err
	}
	if inner[0] != msgToken && inner[0] != msgTokenFT {
		return fmt.Errorf("unexpected inner kind %d", inner[0])
	}
	d := time.Now().UnixNano() - sentNs
	if d < 0 {
		d = 0
	}
	l.rt.traceSpan(traceID, "wire", src, sentNs, d)
	return l.recvFrame(src, traceID, lane, inner)
}

// recvForwarded unwraps what a relay re-sent: the ordinary frame of a token
// (sampled or not) or group-end, delivered on the forwarded lane. Nothing
// else travels in this wrapper — fences name their sender themselves — so
// any other inner kind, a second wrapper included, is refused.
func (l *link) recvForwarded(src string, frame []byte) error {
	if len(frame) > 1 {
		switch inner := frame[1:]; inner[0] {
		case msgTraced:
			return l.recvTracedFrame(src, place.Forwarded, inner)
		case msgToken, msgTokenFT, msgGroupEnd, msgGroupEndFT:
			return l.recvFrame(src, 0, place.Forwarded, inner)
		}
	}
	return fmt.Errorf("no forwardable frame inside")
}

func (l *link) recvGroupEnd(src string, stream ft.Stream, seq uint64, lane place.Lane, body []byte) error {
	m, err := decodeGroupEnd(body, l.rt.app.ids.load())
	if err != nil {
		return err
	}
	m.FTStream, m.FTSeq = stream, seq
	l.rt.handleGroupEnd(m, src, lane)
	return nil
}

// recvRehome receives either framing of a rehome message. A live move's
// state aliases the frame; the install deserializes it synchronously, before
// the frame is recycled.
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
