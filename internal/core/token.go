// Package core implements Dynamic Parallel Schedules (DPS), the primary
// contribution of Gerlach & Hersch (HIPS/IPDPS 2003): compositional
// split-compute-merge flow graphs of operations, mapped at runtime onto
// collections of threads spread across the nodes of a distributed-memory
// cluster.
//
// An application defines
//
//   - token types: plain Go structs registered with internal/serial
//     (the paper's data objects with the IDENTIFY macro);
//   - operations: Split (1→N), Leaf (1→1), Merge (N→1) and Stream (N→M,
//     a fused merge+split that may emit before all inputs arrived);
//   - thread collections: named groups of threads carrying user state,
//     mapped to cluster nodes with mapping strings such as "nodeA*2 nodeB";
//   - routing functions choosing the destination thread index per token;
//   - flow graphs: directed acyclic graphs built from Path/Add (the
//     paper's >> and += operators), type-checked and balance-checked at
//     construction time.
//
// Graphs execute fully pipelined: tokens travel as soon as they are posted,
// queues decouple producers from consumers, and a per-split flow-control
// window bounds the number of tokens in circulation between each
// split–merge pair. Communication with remote threads is serialized and
// paid on the transport (typically internal/simnet, modelling the paper's
// Gigabit Ethernet cluster); local transfers bypass serialization unless
// Config.ForceSerialize is set.
package core

import (
	"fmt"
	"reflect"

	"repro/internal/core/ft"
)

// Token is a DPS data object: a pointer to a struct whose exported fields
// are serializable by internal/serial. The empty interface is used so that
// operations can exchange heterogeneous token types along conditional graph
// paths; typed operation constructors (Leaf, Split, Merge, Stream) restore
// static typing at the user level.
type Token = any

// tokType normalizes a token value or type to its underlying struct type,
// which is the unit of type compatibility checks on graph edges.
func tokType(v any) (reflect.Type, error) {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, fmt.Errorf("dps: nil token")
	}
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("dps: tokens must be pointers to structs, got %s", t)
	}
	return t.Elem(), nil
}

// typeOfGeneric returns the struct type for a generic token parameter,
// which must instantiate to a pointer-to-struct type.
func typeOfGeneric[T any]() reflect.Type {
	t := reflect.TypeOf((*T)(nil)).Elem() // T itself
	if t.Kind() == reflect.Pointer && t.Elem().Kind() == reflect.Struct {
		return t.Elem()
	}
	panic(fmt.Sprintf("dps: token type parameter must be a pointer to struct, got %s", t))
}

// frame is one level of the split–merge accounting stack carried by every
// token envelope. A split pushes a frame on each posted token; the paired
// merge (or stream) pops it. Origin is the cluster node holding the
// split-side window state so that consumption acknowledgements can be
// routed back for flow control and load balancing.
type frame struct {
	GroupID     uint64
	Index       int
	Origin      *Runtime
	MergeThread int // thread instance of the paired merge, fixed per group
}

// inlineFrames is the depth of split nesting an envelope's frame stack holds
// without a heap array of its own; a deeper stack spills to one.
const inlineFrames = 3

// envelope is the runtime wrapper around a token in flight. Its graph and
// nodes are held as what they name; the wire carries their ids (wire.go).
type envelope struct {
	Graph      *Flowgraph
	Node       int // destination graph node id
	Thread     int // destination thread index in that node's collection
	CallID     uint64
	CallOrigin *Runtime
	LastWorker int // thread index charged with this token for load balancing
	CreditNode int // graph node whose credit tracker was charged, -1 if none

	Token   Token // set on the local fast path
	Payload []byte

	// The split-merge accounting stack, innermost group last, is held by
	// value (frames, newFrames): the first nframes entries of inline while
	// they fit, spill beyond that. No field points into the envelope
	// itself, so one can live on its poster's stack (Ctx.postOut) and be
	// copied whole (link.sendToken), and recycling one envelope cannot
	// touch the stack of another.
	nframes int
	inline  [inlineFrames]frame
	spill   []frame

	// FTStream / FTSeq identify the token on its sender stream when the
	// fault-tolerance layer is enabled (zero otherwise): the receiver's
	// duplicate filter and the sender's retention log key on them. They
	// travel behind a msgToken kind byte flagged flagStamped; an unstamped
	// token stays byte-identical.
	FTStream ft.Stream
	FTSeq    uint64
	// ftSender is the sending instance's fault-tolerance state (set by the
	// posting paths, consumed by the routing layer when it assigns FTSeq);
	// nil on forwarded or replayed envelopes, whose sequencing is fixed.
	// ftInStream / ftInSeq are the stream the posting execution's input
	// arrived on and its sequence number there — the output stream derives
	// from the input stream (ft.DerivedStream), which makes re-executed
	// sequence assignment deterministic, and the input sequence attributes
	// each retained output to the input that produced it (regenerative
	// checkpoints, ft.Entry.InSeq). ftWire is the message encoding produced
	// for the retention log; the link layer copies it instead of serializing
	// the token a second time.
	ftSender   *ftSender
	ftInStream ft.Stream
	ftInSeq    uint64
	ftWire     []byte

	// TraceID is the sampled call's trace identifier (zero: unsampled, which
	// is the hot path — every span-recording site gates on it before touching
	// clocks or rings). A sampled envelope's frame is flagged flagTraced and
	// carries it ahead of the header, so the wire stays byte-identical with
	// tracing off. traceEnqNs is the dispatch-enqueue timestamp backing the
	// queue-wait span; both clear with the rest of the struct in
	// putEnvelope.
	TraceID    uint64
	traceEnqNs int64
}

// frames returns the envelope's frame stack, innermost group last.
func (e *envelope) frames() []frame {
	if e.nframes > inlineFrames {
		return e.spill
	}
	return e.inline[:e.nframes]
}

// newFrames replaces the frame stack with n frames for the caller to fill:
// the envelope's own array when they fit, a heap array beyond that.
func (e *envelope) newFrames(n int) []frame {
	e.nframes = n
	if n <= inlineFrames {
		e.spill = nil
		return e.inline[:n]
	}
	e.spill = make([]frame, n)
	return e.spill
}

func (e *envelope) topFrame() (*frame, bool) {
	fs := e.frames()
	if len(fs) == 0 {
		return nil, false
	}
	return &fs[len(fs)-1], true
}
