package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core/ft"
	"repro/internal/core/place"
)

// Wire message kinds exchanged between node runtimes. Per-sender FIFO is
// guaranteed by the transport, as with the paper's TCP connections. A
// frame's first byte holds its kind in the low five bits (kindMask); the
// three bits above are flags announcing optional fields of a token or
// group-end (appendHead), so with every flag clear a frame is the plain
// message byte for byte.
const (
	msgToken    byte = 1 // an envelope carrying a serialized data object
	msgGroupEnd byte = 2 // split finished: announces the group's token count
	msgAck      byte = 3 // merge consumed a token of a group
	msgResult   byte = 4 // final graph output returning to the caller
	msgMigrate  byte = 5 // live rehome: the captured instance, old owner -> new owner
	msgFence    byte = 6 // route-change fence of a live rehome

	// Fault-tolerance messages (internal/core/ft, ftengine.go).
	msgCheckpoint byte = 7  // checkpoint record travelling to the store (master)
	msgReplay     byte = 8  // checkpoint rehome: checkpoint record -> new owner
	msgDeath      byte = 9  // failure broadcast: a node has been declared dead
	msgCut        byte = 12 // log truncation: entries to an instance are durable
	msgPing       byte = 13 // probe frame (linkSuspect's self-send); receivers discard it

	// Reserved numbers, never to be reused: wireKinds has no row for them,
	// so a receiver refuses each as an unknown kind. 10 and 11 numbered the
	// sequenced token and group-end, 15 and 16 the traced and forwarded
	// wrappers (all four now flags of msgToken and msgGroupEnd), 14 a batch
	// frame the engine no longer sends.
	msgTokenFT    byte = 10
	msgGroupEndFT byte = 11
	msgBatch      byte = 14
	msgTraced     byte = 15
	msgForwarded  byte = 16
)

// kindMask selects the kind of a frame's first byte. Each bit above it
// announces optional fields written between the kind byte and the message
// body, in the order of the bits; a kind's row in wireKinds lists the flags
// it accepts, and a receiver refuses any other.
const (
	kindMask      byte = 0x1f
	flagStamped   byte = 0x20 // FT sender stream (16 fixed bytes) and uvarint sequence
	flagTraced    byte = 0x40 // uvarint trace id and varint send clock; tokens only
	flagForwarded byte = 0x80 // a relay re-sent the frame (place.Forwarded); no field
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
	// fault tolerance is enabled (flagStamped); zero otherwise.
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

func (r *wireReader) byte() byte {
	if len(r.b) < 1 {
		r.fail("dps: truncated message")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

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

// stamp reads appendFTStamp's fields.
func (r *wireReader) stamp() (ft.Stream, uint64) {
	stream := ft.Stream{Sender: r.fixed(), In: r.fixed()}
	return stream, r.uvarint()
}

// head reads the optional fields appendHead wrote behind kind byte b. A
// flagged field is never zero, since appendHead flags only a non-zero one.
func (r *wireReader) head(b byte) (stream ft.Stream, seq, traceID uint64, sentNs int64) {
	if b&flagStamped != 0 {
		if stream, seq = r.stamp(); seq == 0 {
			r.fail("dps: stamped frame with sequence 0")
		}
	}
	if b&flagTraced != 0 {
		if traceID, sentNs = r.uvarint(), int64(r.int()); traceID == 0 {
			r.fail("dps: traced frame with trace id 0")
		}
	}
	return stream, seq, traceID, sentNs
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

// appendHead writes the kind byte of a token or group-end with its flags,
// then the optional fields they announce, in the flags' order: the FT stamp
// when seq is non-zero, the trace context when traceID is (sentNs, the
// sender's clock, backs the receiver's wire span), nothing but the bit for
// the forwarded lane. The message body follows.
func appendHead(b []byte, kind byte, lane place.Lane, stream ft.Stream, seq, traceID uint64, sentNs int64) []byte {
	if seq > 0 {
		kind |= flagStamped
	}
	if traceID != 0 {
		kind |= flagTraced
	}
	if lane == place.Forwarded {
		kind |= flagForwarded
	}
	b = append(b, kind)
	if seq > 0 {
		b = appendFTStamp(b, stream, seq)
	}
	if traceID != 0 {
		b = binary.AppendVarint(appendUint64(b, traceID), sentNs)
	}
	return b
}

// appendFTStamp writes the stamp of a sequenced frame or a cut: the sender
// stream's two words in 16 fixed bytes, then the sequence number.
func appendFTStamp(b []byte, stream ft.Stream, seq uint64) []byte {
	b = binary.LittleEndian.AppendUint64(b, stream.Sender)
	b = binary.LittleEndian.AppendUint64(b, stream.In)
	return appendUint64(b, seq)
}

// appendToken writes e's frame up to its serialized token, which the
// caller appends directly afterwards, avoiding an intermediate copy of
// potentially large data objects: the head, then the graph's and the call
// origin's ids in 8 fixed bytes each, then varints, then the frame stack,
// each frame leading with its origin's id.
func appendToken(b []byte, e *envelope, lane place.Lane, sentNs int64) []byte {
	b = appendHead(b, msgToken, lane, e.FTStream, e.FTSeq, e.TraceID, sentNs)
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

// decodeToken parses a token frame b into a pooled envelope, resolving its
// graph and node ids through ids (an unknown one is an error), and returns
// the send clock of a traced frame. The envelope's Payload aliases b;
// the caller owns both and recycles them (putEnvelope after dispatch, the
// wire buffer once decoded).
func decodeToken(b []byte, ids idTable) (*envelope, int64, error) {
	e := getEnvelope()
	r := wireReader{b: b[1:]}
	var sentNs int64
	e.FTStream, e.FTSeq, e.TraceID, sentNs = r.head(b[0])
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
	if r.err != nil {
		putEnvelope(e)
		return nil, 0, r.err
	}
	e.Payload = r.b
	return e, sentNs, nil
}

// appendGroupEnd writes a group-end frame: the head, then the graph's id in
// 8 fixed bytes, then varints.
func appendGroupEnd(b []byte, m *groupEndMsg, lane place.Lane) []byte {
	b = appendHead(b, msgGroupEnd, lane, m.FTStream, m.FTSeq, 0, 0)
	b = appendID(b, m.Graph.id)
	b = appendInt(b, m.Node)
	b = appendInt(b, m.Thread)
	b = appendUint64(b, m.GroupID)
	b = appendInt(b, m.Total)
	return appendUint64(b, m.CallID)
}

// decodeGroupEnd parses a group-end frame, resolving its graph id through
// ids; the frame ends with its last field.
func decodeGroupEnd(b []byte, ids idTable) (*groupEndMsg, error) {
	r := wireReader{b: b[1:]}
	m := &groupEndMsg{}
	m.FTStream, m.FTSeq, _, _ = r.head(b[0])
	m.Graph = r.graph(ids)
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
	m := &fenceMsg{Collection: r.string(), Thread: r.int(), Epoch: r.uvarint(), Src: r.string(), Phase: r.byte()}
	if r.err == nil && m.Phase != fenceClose {
		r.fail("dps: unknown fence phase %d", m.Phase)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return m, nil
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
	m := deathMsg{Node: r.string()}
	return m, r.end()
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
	return m, r.end()
}
