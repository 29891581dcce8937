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

	// msgBatch coalesces tokens and group-ends bound for one destination
	// node into a single transport frame (Config.Batch; see link.go). With
	// batching off no msgBatch frame is ever emitted and every other kind
	// stays byte-identical.
	msgBatch byte = 14

	// msgTraced wraps the ordinary frame of a sampled envelope with its
	// trace context: [msgTraced][traceID][sentNs][inner frame]. Only sampled
	// traffic is wrapped (Config.TraceSample), so with tracing off — or for
	// the unsampled majority with it on — every kind above stays
	// byte-identical, the same discipline as the FT framings and msgBatch.
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
	Graph   string
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
	// and the merge).
	Graph     string
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

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	return readName(b, nil)
}

// readName is readString for a field that nearly always holds a name the
// receiving application declared itself: one found in names (App.canonical)
// is returned as the string the application already holds instead of a
// fresh copy — the map index converts without allocating. An unknown name
// is copied out as readString would and fails wherever it failed before;
// the table is never written from here, so no sender can grow it.
func readName(b []byte, names map[string]string) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", nil, fmt.Errorf("dps: truncated string")
	}
	raw, rest := b[n:n+int(l)], b[n+int(l):]
	if s, ok := names[string(raw)]; ok {
		return s, rest, nil
	}
	return string(raw), rest, nil
}

func appendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

func readInt(b []byte) (int, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("dps: truncated varint")
	}
	return int(v), b[n:], nil
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func readUint64(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("dps: truncated uvarint")
	}
	return v, b[n:], nil
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
	if len(b) < 16 {
		return ft.Stream{}, 0, nil, fmt.Errorf("dps: truncated FT stamp")
	}
	stream = ft.Stream{Sender: binary.LittleEndian.Uint64(b), In: binary.LittleEndian.Uint64(b[8:])}
	if seq, b, err = readUint64(b[16:]); err != nil {
		return ft.Stream{}, 0, nil, err
	}
	return stream, seq, b, nil
}

// skipFTStamp is readFTStamp for a stamp this process encoded itself: it
// steps over the prefix without validating it.
func skipFTStamp(b []byte) []byte {
	_, w := binary.Uvarint(b[16:])
	return b[16+w:]
}

// decodeTokenFT parses a sequenced token message body (stream, sequence,
// then the standard envelope header; Payload aliases b like decodeEnvelope).
func decodeTokenFT(b []byte) (*envelope, error) {
	stream, seq, b, err := readFTStamp(b)
	if err != nil {
		return nil, err
	}
	e, err := decodeEnvelope(b)
	if err != nil {
		return nil, err
	}
	e.FTStream, e.FTSeq = stream, seq
	return e, nil
}

func appendEnvelopeBody(b []byte, e *envelope) []byte {
	b = appendString(b, e.Graph)
	b = appendInt(b, e.Node)
	b = appendInt(b, e.Thread)
	b = appendUint64(b, e.CallID)
	b = appendString(b, e.CallOrigin)
	b = appendInt(b, e.LastWorker)
	b = appendInt(b, e.CreditNode)
	b = appendInt(b, len(e.Frames))
	for _, f := range e.Frames {
		b = appendUint64(b, f.GroupID)
		b = appendInt(b, f.Index)
		b = appendString(b, f.Origin)
		b = appendInt(b, f.MergeThread)
	}
	return b
}

// encodeEnvelopeHeader is appendEnvelopeHeader into a fresh buffer.
func encodeEnvelopeHeader(e *envelope) []byte {
	return appendEnvelopeHeader(make([]byte, 0, 96), e)
}

// decodeEnvelope parses an envelope header into a pooled envelope. The
// returned envelope's Payload aliases b; the caller owns both and recycles
// them (putEnvelope after dispatch, the wire buffer once decoded).
func decodeEnvelope(b []byte) (*envelope, error) {
	return decodeEnvelopeNamed(b, nil)
}

// decodeEnvelopeNamed is decodeEnvelope on a node's receive path: the graph
// name and the node names of the header (call origin, one origin per group
// frame) resolve through names (see readName) instead of being allocated
// once per token per hop.
func decodeEnvelopeNamed(b []byte, names map[string]string) (*envelope, error) {
	e := getEnvelope()
	if err := decodeEnvelopeInto(e, b, names); err != nil {
		putEnvelope(e)
		return nil, err
	}
	return e, nil
}

func decodeEnvelopeInto(e *envelope, b []byte, names map[string]string) error {
	var err error
	if e.Graph, b, err = readName(b, names); err != nil {
		return err
	}
	if e.Node, b, err = readInt(b); err != nil {
		return err
	}
	if e.Thread, b, err = readInt(b); err != nil {
		return err
	}
	if e.CallID, b, err = readUint64(b); err != nil {
		return err
	}
	if e.CallOrigin, b, err = readName(b, names); err != nil {
		return err
	}
	if e.LastWorker, b, err = readInt(b); err != nil {
		return err
	}
	if e.CreditNode, b, err = readInt(b); err != nil {
		return err
	}
	var nframes int
	if nframes, b, err = readInt(b); err != nil {
		return err
	}
	// Every encoded frame is at least four bytes, so the bytes present bound
	// the count before anything is allocated for it.
	if nframes < 0 || nframes > 1<<16 || nframes > len(b)/4 {
		return fmt.Errorf("dps: implausible frame count %d", nframes)
	}
	e.Frames = e.frameStack(nframes)[:nframes]
	for i := range e.Frames {
		f := &e.Frames[i]
		if f.GroupID, b, err = readUint64(b); err != nil {
			return err
		}
		if f.Index, b, err = readInt(b); err != nil {
			return err
		}
		if f.Origin, b, err = readName(b, names); err != nil {
			return err
		}
		if f.MergeThread, b, err = readInt(b); err != nil {
			return err
		}
	}
	e.Payload = b
	return nil
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

func decodeGroupEndFT(b []byte) (*groupEndMsg, error) {
	stream, seq, b, err := readFTStamp(b)
	if err != nil {
		return nil, err
	}
	m, err := decodeGroupEnd(b)
	if err != nil {
		return nil, err
	}
	m.FTStream, m.FTSeq = stream, seq
	return m, nil
}

func appendGroupEndBody(b []byte, m *groupEndMsg) []byte {
	b = appendString(b, m.Graph)
	b = appendInt(b, m.Node)
	b = appendInt(b, m.Thread)
	b = appendUint64(b, m.GroupID)
	b = appendInt(b, m.Total)
	b = appendUint64(b, m.CallID)
	return b
}

func encodeGroupEnd(m *groupEndMsg) []byte {
	return appendGroupEnd(nil, m)
}

func decodeGroupEnd(b []byte) (*groupEndMsg, error) {
	m := &groupEndMsg{}
	var err error
	if m.Graph, b, err = readString(b); err != nil {
		return nil, err
	}
	if m.Node, b, err = readInt(b); err != nil {
		return nil, err
	}
	if m.Thread, b, err = readInt(b); err != nil {
		return nil, err
	}
	if m.GroupID, b, err = readUint64(b); err != nil {
		return nil, err
	}
	if m.Total, b, err = readInt(b); err != nil {
		return nil, err
	}
	if m.CallID, _, err = readUint64(b); err != nil {
		return nil, err
	}
	return m, nil
}

func appendAck(b []byte, m ackMsg) []byte {
	b = append(b, msgAck)
	b = appendUint64(b, m.GroupID)
	b = appendInt(b, m.Worker)
	b = appendString(b, m.Graph)
	b = appendInt(b, m.RouteNode)
	return b
}

func encodeAck(m ackMsg) []byte {
	return appendAck(nil, m)
}

func decodeAck(b []byte) (ackMsg, error) {
	var m ackMsg
	var err error
	if m.GroupID, b, err = readUint64(b); err != nil {
		return ackMsg{}, err
	}
	if m.Worker, b, err = readInt(b); err != nil {
		return ackMsg{}, err
	}
	if m.Graph, b, err = readString(b); err != nil {
		return ackMsg{}, err
	}
	if m.RouteNode, _, err = readInt(b); err != nil {
		return ackMsg{}, err
	}
	return m, nil
}

// appendResultHeader writes the result-message header; the serialized
// result token is appended directly afterwards by the caller.
func appendResultHeader(b []byte, callID uint64) []byte {
	b = append(b, msgResult)
	return appendUint64(b, callID)
}

func encodeResult(m *resultMsg) []byte {
	return append(appendResultHeader(nil, m.CallID), m.Payload...)
}

func decodeResult(b []byte) (*resultMsg, error) {
	m := &resultMsg{}
	var err error
	if m.CallID, b, err = readUint64(b); err != nil {
		return nil, err
	}
	m.Payload = b
	return m, nil
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
func decodeRehome(kind byte, b []byte) (*rehomeMsg, error) {
	m := &rehomeMsg{Replay: kind == msgReplay}
	var err error
	if m.Replay {
		if m.Epoch, b, err = readUint64(b); err != nil {
			return nil, err
		}
		if m.Rec, err = ft.DecodeRecord(b); err != nil {
			return nil, err
		}
		m.Key, m.State = m.Rec.Key, m.Rec.State
		return m, nil
	}
	if m.Key.Collection, b, err = readString(b); err != nil {
		return nil, err
	}
	if m.Key.Thread, b, err = readInt(b); err != nil {
		return nil, err
	}
	if m.Epoch, b, err = readUint64(b); err != nil {
		return nil, err
	}
	if m.Fences, b, err = readInt(b); err != nil {
		return nil, err
	}
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, fmt.Errorf("dps: truncated migration state")
	}
	m.State = b[n : n+int(l)]
	if b = b[n+int(l):]; len(b) > 0 {
		if m.Rec, err = ft.DecodeRecord(b); err != nil {
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
	m := &fenceMsg{}
	var err error
	if m.Collection, b, err = readString(b); err != nil {
		return nil, err
	}
	if m.Thread, b, err = readInt(b); err != nil {
		return nil, err
	}
	if m.Epoch, b, err = readUint64(b); err != nil {
		return nil, err
	}
	if m.Src, b, err = readString(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("dps: truncated fence")
	}
	if m.Phase = b[0]; m.Phase != fenceClose {
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
	if traceID, b, err = readUint64(b); err != nil {
		return 0, 0, nil, err
	}
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("dps: truncated trace header")
	}
	b = b[n:]
	if len(b) == 0 {
		return 0, 0, nil, fmt.Errorf("dps: empty traced frame")
	}
	return traceID, v, b, nil
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
	node, _, err := readString(b)
	return deathMsg{Node: node}, err
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
	var m cutMsg
	var err error
	if m.Stream, m.Seq, b, err = readFTStamp(b); err != nil {
		return cutMsg{}, err
	}
	if m.DstCollection, b, err = readString(b); err != nil {
		return cutMsg{}, err
	}
	if m.DstThread, _, err = readInt(b); err != nil {
		return cutMsg{}, err
	}
	return m, nil
}
