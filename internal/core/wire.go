package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// Wire message kinds exchanged between node runtimes. Per-sender FIFO is
// guaranteed by the transport, as with the paper's TCP connections.
const (
	msgToken    byte = 1 // an envelope carrying a serialized data object
	msgGroupEnd byte = 2 // split finished: announces the group's token count
	msgAck      byte = 3 // merge consumed a token of a group
	msgResult   byte = 4 // final graph output returning to the caller
	msgMigrate  byte = 5 // live rehome: the captured instance, old owner -> new owner
	msgFence    byte = 6 // route-change fence of a live rehome

	// Fault-tolerance messages (internal/core/ft, ftengine.go). The plain
	// kinds above stay byte-identical with the layer disabled: sequenced
	// traffic uses the two *FT framings instead of growing msgToken.
	msgCheckpoint byte = 7  // checkpoint record travelling to the store (master)
	msgReplay     byte = 8  // checkpoint rehome: checkpoint record -> new owner
	msgDeath      byte = 9  // failure broadcast: a node has been declared dead
	msgTokenFT    byte = 10 // msgToken prefixed with its sender stream + sequence
	msgGroupEndFT byte = 11 // msgGroupEnd prefixed with stream + sequence
	msgCut        byte = 12 // log truncation: entries to an instance are durable
	msgPing       byte = 13 // probe frame (linkSuspect's self-send); receivers discard it

	// msgBatch is reserved: it numbered a batch frame the engine no longer
	// sends. A receiver refuses it as an unknown kind.
	msgBatch byte = 14

	// msgTraced wraps the ordinary frame of a sampled envelope with its
	// trace context: [msgTraced][traceID][sentNs][inner frame]. Only sampled
	// traffic is wrapped (Config.TraceSample), so with tracing off — or for
	// the unsampled majority with it on — every kind above stays
	// byte-identical, the same discipline as the FT framings.
	msgTraced byte = 15

	// msgForwarded wraps the ordinary frame of a token or group-end that a
	// node the thread has migrated away from re-sends to its current owner:
	// [msgForwarded][inner frame]. The owner must tell such traffic from the
	// relay's own posts (only those wait in a fence gate). A run that never
	// remaps a thread under traffic emits none.
	msgForwarded byte = 16
)

// fenceClose is the one fence phase: the closing fence a sender emits down
// its old channel at a placement flip. decodeFence rejects every other
// value; 2, the retired opening fence, is not to be reused.
const fenceClose byte = 1

type groupEndMsg struct {
	Graph   *Flowgraph
	Node    int
	Thread  int
	GroupID uint64
	Total   int
	// CallID identifies the invocation the group belongs to, so the merge
	// side can discard group-end announcements of canceled calls instead of
	// materializing merge state nobody will consume.
	CallID uint64
	// FTStream / FTSeq sequence the announcement on its sender stream when
	// fault tolerance is enabled (msgGroupEndFT framing); zero otherwise.
	FTStream ft.Stream
	FTSeq    uint64
}

type ackMsg struct {
	GroupID uint64
	Worker  int
	// RouteNode identifies the graph node whose load-balancing credits the
	// worker acknowledgement feeds (the leaf collection between the split
	// and the merge); the group itself names the graph.
	RouteNode int
}

type resultMsg struct {
	CallID  uint64
	Payload []byte
}

// rehomeMsg is what a thread's new owner installs it from (App.rehome), in
// its source's framing; an empty State installs a fresh zero state.
// msgMigrate (live) carries the old owner's capture: State, the instance's
// fault-tolerance record Rec when the layer is on, and Fences, the number of
// closing fences the flip emitted — the new owner may not move the thread
// on until that many have arrived, which certifies that no stale token of
// this epoch is still in flight through any relay chain. msgReplay
// (checkpoint, Replay set) carries the newest committed checkpoint Rec of a
// dead node's thread, which holds Key and State itself; an empty record
// restores a fresh zero instance, which replay then rebuilds.
type rehomeMsg struct {
	Key    place.Key
	Epoch  uint64
	Fences int
	State  []byte
	Rec    *ft.Record
	Replay bool
}

func (m *rehomeMsg) kind() byte {
	if m.Replay {
		return msgReplay
	}
	return msgMigrate
}

// fenceMsg is a sender's route-change marker (see internal/core/place): it
// travels the sender's old channel behind every token the sender posted to
// the old owner, which forwards it to the new one. Src is the original
// sending node, preserved across forwarding (the transport-level source of a
// forwarded fence is the relay node, not the sender).
type fenceMsg struct {
	Collection string
	Thread     int
	Epoch      uint64
	Src        string
	Phase      byte
}

// wireReader reads a message's fields in order. The first field that does
// not decode sets err and empties b, so every later read returns a zero
// value and a decoder checks err once, at its end. It refuses what the
// encoders never write — a truncated or overflowing varint, one in more
// bytes than it needs, an id nothing declared — so every message it accepts
// has exactly one encoding.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("dps: truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads binary.AppendVarint's zig-zag encoding.
func (r *wireReader) int() int {
	u := r.uvarint()
	return int(u>>1) ^ -int(u&1)
}

// fixed reads 8 little-endian bytes: an id or a word of an FT stream.
func (r *wireReader) fixed() uint64 {
	if len(r.b) < 8 {
		r.fail("dps: truncated message")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// bytes reads a length-prefixed field; it aliases the message.
func (r *wireReader) bytes() []byte {
	l := r.uvarint()
	if uint64(len(r.b)) < l {
		r.fail("dps: truncated field")
		return nil
	}
	v := r.b[:l]
	r.b = r.b[l:]
	return v
}

func (r *wireReader) string() string { return string(r.bytes()) }

// graph reads a graph id and resolves it through ids.
func (r *wireReader) graph(ids idTable) *Flowgraph {
	id := r.fixed()
	g := ids[id].g
	if g == nil {
		r.fail("dps: unknown graph id %#x", id)
	}
	return g
}

// node reads a node id and resolves it through ids.
func (r *wireReader) node(ids idTable) *Runtime {
	id := r.fixed()
	rt := ids[id].rt
	if rt == nil {
		r.fail("dps: unknown node id %#x", id)
	}
	return rt
}

// nodeIndex reads the index of a node of g.
func (r *wireReader) nodeIndex(g *Flowgraph) int {
	i := r.int()
	if g != nil && (i < 0 || i >= len(g.nodes)) {
		r.fail("dps: graph %q has no node %d", g.name, i)
	}
	return i
}

// stamp reads appendFTStamp's prefix.
func (r *wireReader) stamp() (ft.Stream, uint64) {
	stream := ft.Stream{Sender: r.fixed(), In: r.fixed()}
	return stream, r.uvarint()
}

// end is the decoder's error, refusing bytes behind the message's last field.
func (r *wireReader) end() error {
	if len(r.b) > 0 {
		r.fail("dps: %d trailing bytes", len(r.b))
	}
	return r.err
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendID writes a graph or node id (App.declareLocked) in 8 fixed bytes.
func appendID(b []byte, id uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, id)
}

func appendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func readUint64(b []byte) (uint64, []byte, error) {
	r := wireReader{b: b}
	v := r.uvarint()
	return v, r.b, r.err
}

// appendEnvelopeHeader writes the envelope header into b; the serialized
// token payload is appended directly afterwards by the caller, avoiding an
// intermediate copy of potentially large data objects.
func appendEnvelopeHeader(b []byte, e *envelope) []byte {
	b = append(b, msgToken)
	return appendEnvelopeBody(b, e)
}

// appendTokenFT is the sequenced framing of a token envelope: the FT stamp
// travels ahead of the standard header, leaving msgToken byte-identical when
// fault tolerance is off.
func appendTokenFT(b []byte, e *envelope) []byte {
	b = appendFTStamp(append(b, msgTokenFT), e.FTStream, e.FTSeq)
	return appendEnvelopeBody(b, e)
}

// appendFTStamp writes the sequenced framings' prefix: the sender stream's
// two words in 16 fixed bytes, then the sequence number.
func appendFTStamp(b []byte, stream ft.Stream, seq uint64) []byte {
	b = binary.LittleEndian.AppendUint64(b, stream.Sender)
	b = binary.LittleEndian.AppendUint64(b, stream.In)
	return appendUint64(b, seq)
}

// readFTStamp parses appendFTStamp's prefix.
func readFTStamp(b []byte) (stream ft.Stream, seq uint64, rest []byte, err error) {
	r := wireReader{b: b}
	stream, seq = r.stamp()
	return stream, seq, r.b, r.err
}

// appendEnvelopeBody writes the token header: the graph's and the call
// origin's ids in 8 fixed bytes each, then varints, then the frame stack,
// each frame leading with its origin's id.
func appendEnvelopeBody(b []byte, e *envelope) []byte {
	b = appendID(b, e.Graph.id)
	b = appendID(b, e.CallOrigin.id)
	b = appendInt(b, e.Node)
	b = appendInt(b, e.Thread)
	b = appendUint64(b, e.CallID)
	b = appendInt(b, e.LastWorker)
	b = appendInt(b, e.CreditNode)
	fs := e.frames()
	b = appendInt(b, len(fs))
	for _, f := range fs {
		b = appendID(b, f.Origin.id)
		b = appendUint64(b, f.GroupID)
		b = appendInt(b, f.Index)
		b = appendInt(b, f.MergeThread)
	}
	return b
}

// minFrameLen is the shortest encoding of a group frame: an id and three
// one-byte varints.
const minFrameLen = 8 + 3

// decodeEnvelope parses an envelope header into a pooled envelope, resolving
// its graph and node ids through ids (an unknown one is an error). The
// returned envelope's Payload aliases b; the caller owns both and recycles
// them (putEnvelope after dispatch, the wire buffer once decoded).
func decodeEnvelope(b []byte, ids idTable) (*envelope, error) {
	e := getEnvelope()
	if err := decodeEnvelopeInto(e, b, ids); err != nil {
		putEnvelope(e)
		return nil, err
	}
	return e, nil
}

func decodeEnvelopeInto(e *envelope, b []byte, ids idTable) error {
	r := wireReader{b: b}
	e.Graph = r.graph(ids)
	e.CallOrigin = r.node(ids)
	e.Node = r.nodeIndex(e.Graph)
	e.Thread = r.int()
	e.CallID = r.uvarint()
	e.LastWorker = r.int()
	e.CreditNode = r.int()
	// The bytes present bound the count before anything is allocated for it.
	var fs []frame
	if n := r.int(); n < 0 || n > len(r.b)/minFrameLen {
		r.fail("dps: implausible frame count %d", n)
	} else {
		fs = e.newFrames(n)
	}
	for i := range fs {
		f := &fs[i]
		f.Origin = r.node(ids)
		f.GroupID = r.uvarint()
		f.Index = r.int()
		f.MergeThread = r.int()
	}
	e.Payload = r.b
	return r.err
}

// decodeTokenFT parses a sequenced token message body (stream, sequence,
// then the standard envelope header; Payload aliases b like decodeEnvelope).
func decodeTokenFT(b []byte, ids idTable) (*envelope, error) {
	stream, seq, b, err := readFTStamp(b)
	if err != nil {
		return nil, err
	}
	e, err := decodeEnvelope(b, ids)
	if err == nil {
		e.FTStream, e.FTSeq = stream, seq
	}
	return e, err
}

func appendGroupEnd(b []byte, m *groupEndMsg) []byte {
	b = append(b, msgGroupEnd)
	return appendGroupEndBody(b, m)
}

// appendGroupEndFT is the sequenced framing of a group-end announcement
// (see appendTokenFT).
func appendGroupEndFT(b []byte, m *groupEndMsg) []byte {
	b = appendFTStamp(append(b, msgGroupEndFT), m.FTStream, m.FTSeq)
	return appendGroupEndBody(b, m)
}

// appendGroupEndBody writes the group-end header: the graph's id in 8 fixed
// bytes, then varints.
func appendGroupEndBody(b []byte, m *groupEndMsg) []byte {
	b = appendID(b, m.Graph.id)
	b = appendInt(b, m.Node)
	b = appendInt(b, m.Thread)
	b = appendUint64(b, m.GroupID)
	b = appendInt(b, m.Total)
	return appendUint64(b, m.CallID)
}

// decodeGroupEnd parses a group-end body, resolving its graph id through
// ids; the body ends with its last field.
func decodeGroupEnd(b []byte, ids idTable) (*groupEndMsg, error) {
	r := wireReader{b: b}
	m := &groupEndMsg{Graph: r.graph(ids)}
	m.Node = r.nodeIndex(m.Graph)
	m.Thread = r.int()
	m.GroupID = r.uvarint()
	m.Total = r.int()
	m.CallID = r.uvarint()
	if err := r.end(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeGroupEndFT(b []byte, ids idTable) (*groupEndMsg, error) {
	stream, seq, b, err := readFTStamp(b)
	if err != nil {
		return nil, err
	}
	m, err := decodeGroupEnd(b, ids)
	if err == nil {
		m.FTStream, m.FTSeq = stream, seq
	}
	return m, err
}

// appendAck writes an ack: three varints and no name.
func appendAck(b []byte, m ackMsg) []byte {
	b = append(b, msgAck)
	b = appendUint64(b, m.GroupID)
	b = appendInt(b, m.Worker)
	return appendInt(b, m.RouteNode)
}

func decodeAck(b []byte) (ackMsg, error) {
	r := wireReader{b: b}
	m := ackMsg{GroupID: r.uvarint(), Worker: r.int(), RouteNode: r.int()}
	return m, r.end()
}

// appendResultHeader writes the result-message header; the serialized
// result token is appended directly afterwards by the caller.
func appendResultHeader(b []byte, callID uint64) []byte {
	b = append(b, msgResult)
	return appendUint64(b, callID)
}

func decodeResult(b []byte) (*resultMsg, error) {
	r := wireReader{b: b}
	m := &resultMsg{CallID: r.uvarint()}
	m.Payload = r.b
	return m, r.err
}

// appendRehome writes m in its source's framing. A live move's state is
// appended after the header, mirroring the token path's single-copy layout,
// and its record follows, to the end of the frame, only when there is one,
// keeping the envelope byte-identical with fault tolerance off.
func appendRehome(b []byte, m *rehomeMsg) []byte {
	b = append(b, m.kind())
	if m.Replay {
		b = appendUint64(b, m.Epoch)
		return ft.AppendRecord(b, m.Rec)
	}
	b = appendString(b, m.Key.Collection)
	b = appendInt(b, m.Key.Thread)
	b = appendUint64(b, m.Epoch)
	b = appendInt(b, m.Fences)
	b = binary.AppendUvarint(b, uint64(len(m.State)))
	b = append(b, m.State...)
	if m.Rec != nil {
		b = ft.AppendRecord(b, m.Rec)
	}
	return b
}

// decodeRehome parses either framing of a rehome message; kind is the
// frame's first byte and b the rest. A live move's State aliases b: the
// caller must fully consume it before recycling the wire buffer.
func decodeRehome(kind byte, b []byte) (m *rehomeMsg, err error) {
	r := wireReader{b: b}
	m = &rehomeMsg{Replay: kind == msgReplay}
	if m.Replay {
		m.Epoch = r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if m.Rec, err = ft.DecodeRecord(r.b); err != nil {
			return nil, err
		}
		m.Key, m.State = m.Rec.Key, m.Rec.State
		return m, nil
	}
	m.Key.Collection = r.string()
	m.Key.Thread = r.int()
	m.Epoch = r.uvarint()
	m.Fences = r.int()
	m.State = r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) > 0 {
		if m.Rec, err = ft.DecodeRecord(r.b); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func appendFence(b []byte, m *fenceMsg) []byte {
	b = append(b, msgFence)
	b = appendString(b, m.Collection)
	b = appendInt(b, m.Thread)
	b = appendUint64(b, m.Epoch)
	b = appendString(b, m.Src)
	return append(b, m.Phase)
}

func decodeFence(b []byte) (*fenceMsg, error) {
	r := wireReader{b: b}
	m := &fenceMsg{Collection: r.string(), Thread: r.int(), Epoch: r.uvarint(), Src: r.string()}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) < 1 {
		return nil, fmt.Errorf("dps: truncated fence")
	}
	if m.Phase = r.b[0]; m.Phase != fenceClose {
		return nil, fmt.Errorf("dps: unknown fence phase %d", m.Phase)
	}
	return m, nil
}

// appendTracedHeader writes the trace-context prefix of a sampled
// envelope's wire frame; the inner frame (any ordinary kind) is appended
// directly afterwards by the caller. sentNs is the sender's clock at
// transmit time, backing the receiver-recorded wire span.
func appendTracedHeader(b []byte, traceID uint64, sentNs int64) []byte {
	b = append(b, msgTraced)
	b = appendUint64(b, traceID)
	return binary.AppendVarint(b, sentNs)
}

// decodeTracedHeader parses a msgTraced body (the frame minus its kind
// byte), returning the trace context and the inner frame — which starts
// with its own kind byte and aliases b.
func decodeTracedHeader(b []byte) (traceID uint64, sentNs int64, inner []byte, err error) {
	r := wireReader{b: b}
	traceID, sentNs = r.uvarint(), int64(r.int())
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if len(r.b) == 0 {
		return 0, 0, nil, fmt.Errorf("dps: empty traced frame")
	}
	return traceID, sentNs, r.b, nil
}

// --- fault-tolerance messages (ftengine.go) -------------------------------

func appendCheckpoint(b []byte, rec *ft.Record) []byte {
	return ft.AppendRecord(append(b, msgCheckpoint), rec)
}

// deathMsg broadcasts that a node has been declared dead, so every engine
// process sharing the cluster starts (or deduplicates) its recovery.
type deathMsg struct {
	Node string
}

func appendDeath(b []byte, m deathMsg) []byte {
	b = append(b, msgDeath)
	return appendString(b, m.Node)
}

func decodeDeath(b []byte) (deathMsg, error) {
	r := wireReader{b: b}
	return deathMsg{Node: r.string()}, r.err
}

// cutMsg tells the owner of the sender stream that its retained log
// entries toward one instance are durable through Seq and may be dropped:
// either a checkpoint of that instance committed (checkpoint-driven GC) or
// the tokens were consumed on the master node, which never restores
// (ack-driven GC via the flow-control consumption hook).
type cutMsg struct {
	Stream        ft.Stream // sender stream whose log is truncated
	DstCollection string    // destination instance the entries were sent to
	DstThread     int
	Seq           uint64
}

func appendCut(b []byte, m cutMsg) []byte {
	b = appendFTStamp(append(b, msgCut), m.Stream, m.Seq)
	b = appendString(b, m.DstCollection)
	return appendInt(b, m.DstThread)
}

func decodeCut(b []byte) (cutMsg, error) {
	r := wireReader{b: b}
	var m cutMsg
	m.Stream, m.Seq = r.stamp()
	m.DstCollection, m.DstThread = r.string(), r.int()
	return m, r.err
}
