// Package ft is the fault-tolerance layer of the DPS engine: the
// bookkeeping that lets an application survive the death of a cluster node
// while flow graphs execute, following the checkpoint-and-message-logging
// line of work that grew out of the DPS paper (checkpointed thread state,
// replay of in-flight tokens, duplicate suppression).
//
// Like internal/core/place, the package is deliberately transport- and
// token-agnostic: it stores engine-encoded messages as opaque byte slices
// and only answers *bookkeeping* questions. Four cooperating pieces:
//
//   - State (one per sending thread instance, plus one per node for graph
//     calls): assigns per-destination sequence numbers to outbound tokens,
//     retains every sent message in a log until it is known to be
//     durable, and filters inbound duplicates by remembering the highest
//     sequence processed per sender stream. Because transports deliver
//     FIFO per sender, the processed set of a stream is always a prefix,
//     so one counter per stream is an exact duplicate filter.
//
//   - Record: one checkpoint of one thread instance — the serialized user
//     state plus the State snapshot (inbound cursors, outbound counters,
//     retained log). A restored instance re-executes replayed inputs with
//     the same outbound sequence numbers the original execution used,
//     which is what makes duplicate suppression work across re-execution.
//
//   - Store: the committed checkpoints, kept on the master node (the
//     stand-in for replicated stable storage; the master also hosts graph
//     calls and the recovery coordinator, so its death ends the
//     application either way). Commits are ordered by checkpoint sequence
//     so a delayed older checkpoint cannot overwrite a newer one.
//
//   - Detector: the once-only dead-node marks shared by the failure
//     detection paths (transport send errors, kernel heartbeats, injected
//     crashes), so concurrent reports of one death fold into one recovery.
//
// Log truncation is driven by checkpoint commits: an entry may be dropped
// exactly when a committed checkpoint of its destination covers its
// sequence number (the destination can never need it again — restores use
// the newest checkpoint, and inbound cursors are monotonic). Consumption
// acknowledgements of the flow-control layer provide an earlier hook for
// the common case: a token consumed by a collector on the master node is
// durable immediately (the master never restores), so its ack already
// identifies it as safe to drop. The quiesce, serialization and sends live
// in the runtime (internal/core/ftengine.go); this package is pure
// bookkeeping and is unit-testable without an engine.
package ft

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core/place"
	"repro/internal/serial"
)

// Entry kinds: what the engine-encoded Bytes of a log entry contain.
const (
	// EntryToken is a token envelope (header + serialized payload).
	EntryToken byte = 1
	// EntryGroupEnd is a split's group-end announcement.
	EntryGroupEnd byte = 2
)

// Entry is one logged send: an engine-encoded message retained until a
// checkpoint of its destination covers it, replayable if the destination
// node dies first.
type Entry struct {
	// Stream is the derived sender stream the entry was sent on.
	Stream Stream
	// Dst is the destination thread instance.
	Dst place.Key
	// Seq is the entry's sequence number on the (Stream, Dst) pair.
	Seq uint64
	// CallID identifies the invocation, so replays skip canceled calls.
	CallID uint64
	// InStream / InSeq attribute the entry to the input whose execution
	// produced it: the sender stream the input arrived on and its sequence
	// number there. They power regenerative checkpoints (SnapshotRegen) —
	// knowing which input each retained output belongs to is what lets a
	// checkpoint rewind its input cursors instead of shipping the log.
	InStream Stream
	InSeq    uint64
	// Kind says how to decode Bytes (EntryToken / EntryGroupEnd).
	Kind byte
	// Bytes is the engine-encoded message, opaque to this package.
	Bytes []byte
}

// OutKey identifies one outbound cursor: a derived sender stream paired
// with its destination instance.
type OutKey struct {
	Stream Stream
	Dst    place.Key
}

// ChanMark is the per-output-channel watermark that makes regenerative
// checkpoints sound. Because an instance's output stream is derived from
// the input stream that produced it (DerivedStream), each (stream, dst)
// channel carries the outputs of exactly one input stream, in input order —
// so sequence numbers on a channel are contiguous and cuts always remove a
// prefix. Tracking how far that prefix reaches, in both output and input
// coordinates, tells a checkpoint which inputs it may safely promise to
// re-execute instead of logging their outputs.
type ChanMark struct {
	// InStream is the input stream whose executions feed this channel (the
	// zero Stream poisons the channel: conflicting or unattributed entries
	// were appended, and regeneration must not trust it).
	InStream Stream
	// CutIn is the highest input sequence whose output on this channel has
	// been cut from the log.
	CutIn uint64
	// CutOut is the highest output sequence ever cut (monotone; cuts drop
	// prefixes, so this is also the length of the fully-durable prefix).
	CutOut uint64
}

// State is the fault-tolerance state of one sender: outbound sequencing
// and retention, inbound duplicate filtering. The zero value is not usable;
// create with NewState. All methods are safe for concurrent use.
type State struct {
	stream Stream

	mu  sync.Mutex
	in  map[Stream]uint64 // highest inbound seq processed, per sender stream
	out map[OutKey]uint64 // last outbound seq assigned, per (stream, destination)
	log []Entry

	// chans holds the regeneration watermarks, one per output channel ever
	// used; shipped is the highest In value per input stream ever placed in
	// a record that left this state (checkpoint or migration) — a floor no
	// later regenerative rewind may go below, because upstream logs may
	// already be cut to it.
	chans   map[OutKey]ChanMark
	shipped map[Stream]uint64
}

// NewState creates the fault-tolerance state of a sender identified by
// stream (see StreamOf / NodeStream).
func NewState(stream Stream) *State {
	return &State{
		stream:  stream,
		in:      make(map[Stream]uint64),
		out:     make(map[OutKey]uint64),
		chans:   make(map[OutKey]ChanMark),
		shipped: make(map[Stream]uint64),
	}
}

// Stream returns the sender's base stream.
func (s *State) Stream() Stream { return s.stream }

// NextOut assigns the next outbound sequence number of stream toward dst.
// stream is a derived stream of this sender (see DerivedStream).
func (s *State) NextOut(stream Stream, dst place.Key) uint64 {
	k := OutKey{Stream: stream, Dst: dst}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out[k]++
	return s.out[k]
}

// CheckIn filters one inbound message: it reports whether (stream, seq) is
// fresh, recording it if so. A false return means the message was already
// processed (directly, or reflected through a restored checkpoint) and
// must be dropped.
func (s *State) CheckIn(stream Stream, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.in[stream] {
		return false
	}
	s.in[stream] = seq
	return true
}

// Append retains one sent message for possible replay.
func (s *State) Append(e Entry) {
	s.mu.Lock()
	s.log = append(s.log, e)
	k := OutKey{Stream: e.Stream, Dst: e.Dst}
	cm, ok := s.chans[k]
	if !ok {
		cm.InStream = e.InStream
	} else if cm.InStream != e.InStream {
		cm.InStream = Stream{} // poisoned: regeneration must not trust the channel
	}
	s.chans[k] = cm
	s.mu.Unlock()
}

// Cut drops retained entries of one (stream, dst) pair with sequence
// numbers <= seq (they are covered by a committed checkpoint of dst, or
// were consumed on a node that never restores). It returns the number of
// entries dropped.
func (s *State) Cut(stream Stream, dst place.Key, seq uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := OutKey{Stream: stream, Dst: dst}
	cm := s.chans[k]
	kept := s.log[:0]
	dropped := 0
	for _, e := range s.log {
		if e.Stream == stream && e.Dst == dst && e.Seq <= seq {
			dropped++
			if e.InSeq > cm.CutIn {
				cm.CutIn = e.InSeq
			}
			if e.Seq > cm.CutOut {
				cm.CutOut = e.Seq
			}
			continue
		}
		kept = append(kept, e)
	}
	if dropped > 0 {
		s.chans[k] = cm
	}
	// Zero the tail so dropped entries' byte slices are collectable.
	for i := len(kept); i < len(s.log); i++ {
		s.log[i] = Entry{}
	}
	s.log = kept
	return dropped
}

// EntriesTo returns the retained entries destined for dst, in send order —
// which is per-stream sequence order, the replay-order correctness
// condition (seqs of distinct derived streams interleave and must not be
// re-sorted against each other).
func (s *State) EntriesTo(dst place.Key) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for _, e := range s.log {
		if e.Dst == dst {
			out = append(out, e)
		}
	}
	return out
}

// LogLen reports the number of retained entries (tests and stats).
func (s *State) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// Snapshot copies the state into a Record shell: inbound cursors, outbound
// counters and the retained log. The caller fills Key, Seq and State. The
// record is assumed to leave this state (checkpoint ship or migration), so
// the shipped floors rise to its In cursors — a later regenerative rewind
// must never promise inputs an earlier record may have truncated upstream.
func (s *State) Snapshot() *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Record{
		In:  make(map[Stream]uint64, len(s.in)),
		Out: make(map[OutKey]uint64, len(s.out)),
		Log: make([]Entry, len(s.log)),
	}
	for k, v := range s.in {
		r.In[k] = v
		if v > s.shipped[k] {
			s.shipped[k] = v
		}
	}
	for k, v := range s.out {
		r.Out[k] = v
	}
	copy(r.Log, s.log)
	s.fillMarks(r)
	return r
}

// fillMarks copies the regeneration watermarks into r (mu held).
func (s *State) fillMarks(r *Record) {
	r.Chans = make(map[OutKey]ChanMark, len(s.chans))
	for k, v := range s.chans {
		r.Chans[k] = v
	}
	r.Shipped = make(map[Stream]uint64, len(s.shipped))
	for k, v := range s.shipped {
		r.Shipped[k] = v
	}
}

// SnapshotRegen attempts a regenerative (log-free) checkpoint: instead of
// shipping the retained log — the bulk payload bytes that make checkpoint
// egress scale with traffic — it rewinds the inbound cursors to a point
// from which deterministic re-execution regenerates every retained output
// with its original sequence number. The record then carries only cursors
// and counters. ok=false means no sound rewind exists right now (the
// caller falls back to Snapshot); the caller must ensure the instance is
// stateless and never ran a collector — re-execution from rewound cursors
// replays state mutations and merge consumption the record cannot capture.
//
// Soundness: for input stream st the rewound cursor is
//
//	S(st) = min(in[st], min over channels fed by st of (minLiveInSeq − 1))
//
// so on every channel the live entries are exactly the outputs of inputs
// above S — which re-execution regenerates in order, with Out restored to
// CutOut so the regenerated sequence numbers collide with the originals in
// every receiver's duplicate filter. Two conditions can break that and
// veto the rewind: a channel that cut an output of an input above S (the
// regenerated copy would be assigned a FRESH sequence number and slip past
// the filters as a duplicate delivery), and a rewind below a shipped floor
// (upstream logs may already be truncated to an earlier record's In, so
// inputs below it can never be replayed to us).
func (s *State) SnapshotRegen() (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rewound := make(map[Stream]uint64, len(s.in))
	for st, v := range s.in {
		rewound[st] = v
	}
	for _, e := range s.log {
		cm, ok := s.chans[OutKey{Stream: e.Stream, Dst: e.Dst}]
		if !ok || cm.InStream == (Stream{}) || e.InSeq == 0 {
			return nil, false // unattributed output: cannot rewind past it
		}
		cur, ok := rewound[cm.InStream]
		if !ok {
			return nil, false
		}
		if e.InSeq-1 < cur {
			rewound[cm.InStream] = e.InSeq - 1
		}
	}
	for k, cm := range s.chans {
		if cm.InStream == (Stream{}) {
			return nil, false
		}
		S, ok := rewound[cm.InStream]
		if !ok || cm.CutIn > S {
			return nil, false
		}
		if _, ok := s.out[k]; !ok {
			return nil, false
		}
	}
	for st, S := range rewound {
		if S < s.shipped[st] {
			return nil, false
		}
	}
	r := &Record{
		In:  rewound,
		Out: make(map[OutKey]uint64, len(s.chans)),
	}
	for k := range s.out {
		cm, ok := s.chans[k]
		if !ok {
			return nil, false
		}
		r.Out[k] = cm.CutOut
	}
	for st, S := range rewound {
		if S > s.shipped[st] {
			s.shipped[st] = S
		}
	}
	s.fillMarks(r)
	return r, true
}

// Restore overwrites the state from a checkpoint record: the restored
// instance re-executes replayed inputs with exactly the sequencing the
// original execution used past this point.
func (s *State) Restore(r *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in = make(map[Stream]uint64, len(r.In))
	s.out = make(map[OutKey]uint64, len(r.Out))
	for k, v := range r.In {
		s.in[k] = v
	}
	for k, v := range r.Out {
		s.out[k] = v
	}
	s.log = append([]Entry(nil), r.Log...)
	s.chans = make(map[OutKey]ChanMark, len(r.Chans))
	for k, v := range r.Chans {
		s.chans[k] = v
	}
	s.shipped = make(map[Stream]uint64, len(r.Shipped))
	for k, v := range r.Shipped {
		s.shipped[k] = v
	}
}

// Stream is a sender stream: the unit the sequence numbers, the duplicate
// filters and the retention log are keyed by. It is two words so that a
// stamp costs no allocation and travels in fixed bytes.
type Stream struct {
	// Sender names the sending thread instance or node (StreamOf,
	// NodeStream). It is logical, not physical: after a rehome or failover
	// the re-executed sends of a restored instance must collide with the
	// originals in every receiver's duplicate filter, wherever both ran.
	Sender uint64
	// In is the derivation (DerivedStream): zero for a base stream, else a
	// hash of the input stream whose executions the stream carries.
	In uint64
}

// ThreadBits is the width of the thread index held in the low bits of an
// instance's Sender; the bits above it are the collection's id. A node's
// Sender is the node's id, whose low bits are clear.
const ThreadBits = 24

const threadMask = 1<<ThreadBits - 1

// StreamOf returns the base stream of a thread instance: thread, which must
// be below 1<<ThreadBits, of the collection whose id is coll.
func StreamOf(coll uint64, thread int) Stream {
	return Stream{Sender: coll | uint64(thread)}
}

// NodeStream returns the stream of the graph-call entry posts of the node
// whose id is node; they originate from no thread instance.
func NodeStream(node uint64) Stream { return Stream{Sender: node} }

// SplitSender splits a Sender into its name part — the id of the collection
// or node, which an application resolves through the table it fills as it
// declares them — and its thread index.
func SplitSender(sender uint64) (name uint64, thread int) {
	return sender &^ threadMask, int(sender & threadMask)
}

// NameID hashes a kind byte and a name (64-bit FNV-1a, then mixed) into the
// bits above ThreadBits: the id under which an application declares a graph,
// node or collection, and which the wire carries in place of the name. It
// is never zero, so no Sender is.
func NameID(kind byte, name string) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(kind)) * 1099511628211
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	if h = mix(h) &^ threadMask; h == 0 {
		h = threadMask + 1
	}
	return h
}

// mix is the 64-bit finalizer of MurmurHash3: a bijection that spreads
// every input bit over the whole word.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// DerivedStream returns the output stream of an instance executing an input
// that arrived on in (the zero Stream: an input that was not sequenced).
// Deriving the output stream from the input stream is the layer's
// determinant: a restored instance re-executes each input stream in
// sequence order, but the interleaving ACROSS streams is not reproducible —
// per-input-stream output cursors make the regenerated (sequence → content)
// binding independent of it.
func DerivedStream(base, in Stream) Stream {
	if in == (Stream{}) {
		return base
	}
	if base.In = mix(mix(in.Sender) ^ in.In); base.In == 0 {
		base.In = 1
	}
	return base
}

// Record is one committed checkpoint of one thread instance. Its wire form
// is the serial codec's (AppendRecord, DecodeRecord).
type Record struct {
	// Key identifies the instance.
	Key place.Key
	// Seq is the application-wide checkpoint sequence number; commits are
	// ordered by it.
	Seq uint64
	// State is the serialized user state (empty for stateless collections
	// and instances that were never touched).
	State []byte
	// In / Out / Log are the State snapshot (see State.Snapshot). A
	// regenerative record (SnapshotRegen) carries rewound In cursors and an
	// empty Log.
	In  map[Stream]uint64
	Out map[OutKey]uint64
	Log []Entry
	// Chans / Shipped are the regeneration watermarks, restored verbatim so
	// a recovered instance keeps taking regenerative checkpoints.
	Chans   map[OutKey]ChanMark
	Shipped map[Stream]uint64
}

// records is the registry records are encoded with, holding Record alone.
var records = func() *serial.Registry {
	r := serial.NewRegistry()
	if err := serial.Register[Record](r); err != nil {
		panic(err)
	}
	return r
}()

// AppendRecord appends r's wire form to b.
func AppendRecord(b []byte, r *Record) []byte {
	b, err := records.Append(b, r)
	if err != nil {
		panic(err) // Record is registered, and r is not nil
	}
	return b
}

// DecodeRecord parses a record from the start of b. Returned byte slices
// are copies; the caller may recycle b.
func DecodeRecord(b []byte) (*Record, error) {
	v, _, err := records.Unmarshal(b)
	if err != nil {
		return nil, fmt.Errorf("ft: bad record: %w", err)
	}
	return v.(*Record), nil
}

// Store holds the committed checkpoints of an application, one latest
// record per instance. It stands in for the replicated stable storage of a
// production deployment and lives on the master node.
type Store struct {
	mu   sync.Mutex
	recs map[place.Key]*Record
}

// Commit installs a checkpoint if it is newer than the stored one,
// reporting whether it was installed (commits may arrive out of order when
// a checkpoint envelope races a failover's traffic).
func (st *Store) Commit(r *Record) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.recs == nil {
		st.recs = make(map[place.Key]*Record)
	}
	if prev, ok := st.recs[r.Key]; ok && prev.Seq >= r.Seq {
		return false
	}
	st.recs[r.Key] = r
	return true
}

// Latest returns the newest committed checkpoint of one instance, or nil.
func (st *Store) Latest(k place.Key) *Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recs[k]
}

// Len reports the number of instances with a committed checkpoint.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.recs)
}

// Detector folds concurrent death reports of one node into a single
// recovery: the first MarkDead per node wins.
type Detector struct {
	mu   sync.Mutex
	dead map[string]bool
}

// MarkDead records a node death, reporting whether this was the first
// report (the caller then owns the recovery).
func (d *Detector) MarkDead(node string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[node] {
		return false
	}
	if d.dead == nil {
		d.dead = make(map[string]bool)
	}
	d.dead[node] = true
	return true
}

// IsDead reports whether a node has been declared dead.
func (d *Detector) IsDead(node string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[node]
}

// Dead lists the declared-dead nodes.
func (d *Detector) Dead() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.dead))
	for n := range d.dead {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
