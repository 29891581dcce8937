package core

import (
	"reflect"
	"sync/atomic"
)

// Stats are cumulative counters of a node runtime (and, aggregated, of a
// whole application). They expose the macro-dataflow activity the paper
// describes — tokens circulating, local pointer handoffs vs serialized
// network transfers — and are used by the experiment harness and tests.
//
// This struct is the single declaration of the engine's counters: a runtime
// counts into a Stats value (atomic.AddInt64 on its fields), and snapshots,
// Add and the metrics exporter's gauge set are derived from it by
// reflection. Every field is an int64; a field tagged `stat:"max"` is a
// high-water mark, aggregated by maximum rather than by sum.
type Stats struct {
	// TokensPosted counts operation outputs (including final results).
	TokensPosted int64
	// TokensLocal counts tokens delivered by same-node pointer handoff.
	TokensLocal int64
	// TokensRemote counts tokens serialized and sent over the transport.
	TokensRemote int64
	// BytesSent counts the bytes of every engine frame handed to the
	// transport: tokens and every control kind alike.
	BytesSent int64
	// GroupsOpened counts split/stream groups created on the node.
	GroupsOpened int64
	// AcksSent counts consumption acknowledgements issued by merges.
	AcksSent int64
	// WindowStalls counts posts that blocked on the flow-control gate.
	WindowStalls int64
	// CallsCompleted counts graph-call results delivered on the node.
	CallsCompleted int64
	// CallsAdmitted counts graph calls that passed admission on this node
	// (registered in the pending-call table; Config.MaxInFlightCalls).
	CallsAdmitted int64
	// CallsRejected counts graph calls shed at admission with ErrOverload
	// because the in-flight call budget was exhausted.
	CallsRejected int64
	// CallsExpired counts admitted calls canceled by a deadline before
	// their result arrived (context.DeadlineExceeded), attributed to the
	// call's origin node.
	CallsExpired int64
	// TokensDropped counts the tokens of canceled calls discarded unexecuted
	// on the node: on arrival, from a dispatch queue, or buffered for a merge
	// group that is retired. Each is acknowledged as if consumed.
	TokensDropped int64
	// QueueHighWater is the deepest per-instance dispatch queue observed by
	// the scheduler layer: the most tokens that ever waited for one thread
	// (the queue has no cap). Aggregation takes the maximum, not the sum.
	QueueHighWater int64 `stat:"max"`
	// DrainerHandoffs counts scheduler drainer-role handoffs (an operation
	// blocked mid-execution and passed its queue to another goroutine).
	DrainerHandoffs int64
	// SchedWorkersStarted counts the goroutines the scheduler layer created:
	// drainers for which no parked worker was free
	// (sched.Stats.WorkersStarted), never one per queued token. Over
	// CallsCompleted it reads as goroutines started per call: near zero
	// while the warm workers cover the node's concurrency.
	SchedWorkersStarted int64
	// SchedTicketWaits counts the executions (and reacquires after a block)
	// that had to wait for their FIFO ticket (sched.Stats.TicketWaits); every
	// other one found its turn already come and allocated nothing for it.
	SchedTicketWaits int64
	// MigrationsCompleted counts live thread remaps completed with this node
	// as the old owner (the node that quiesced and shipped the state).
	MigrationsCompleted int64
	// TokensForwarded counts envelopes and group-ends re-sent by a placement
	// relay because they reached a node the destination thread had migrated
	// away from (held arrivals flushed at the handoff included).
	TokensForwarded int64
	// MigrationBytes counts serialized thread-state bytes shipped in
	// migration envelopes by this node.
	MigrationBytes int64
	// CheckpointsTaken counts fault-tolerance checkpoints captured by this
	// node's thread instances (Config.Checkpoint).
	CheckpointsTaken int64
	// CheckpointBytes counts serialized thread-state bytes captured into
	// checkpoints by this node.
	CheckpointBytes int64
	// TokensReplayed counts retained tokens and group-ends re-sent during
	// failure recovery (sender-side replay plus checkpoint-log re-sends).
	TokensReplayed int64
	// FailoversCompleted counts dead-node recoveries coordinated by this
	// node (the master).
	FailoversCompleted int64
	// DuplicatesDropped counts inbound sequenced tokens and group-ends that
	// the exactly-once prefix filter rejected: copies a failover replay or
	// a restored instance's re-execution delivered a second time.
	DuplicatesDropped int64
	// CutsStale counts log cuts dropped because their sender is not hosted
	// on this node (it moved on before the cut arrived).
	CutsStale int64
	// WireBufMisses counts the wire buffers that had to be allocated because
	// the pool's class was empty: for an outbound message, or for the frame
	// a transport.Borrower builds around one. With every token a copy of
	// its bytes, it explains a deployment's allocated bytes per token from
	// /metrics alone.
	WireBufMisses int64
	// FramesBatched always reads 0: the engine sends no batch frames.
	//
	// Deprecated: nothing increments it; it is kept only until the
	// benchmark's batched-ring workload, which reads it, is retired.
	FramesBatched int64
}

// statsMax marks, by field index, the Stats fields tagged stat:"max".
var statsMax = func() []bool {
	t := reflect.TypeOf(Stats{})
	max := make([]bool, t.NumField())
	for i := range max {
		max[i] = t.Field(i).Tag.Get("stat") == "max"
	}
	return max
}()

// StatsHighWater names the Stats fields that are high-water marks rather
// than monotonic counters (an exporter publishes them as gauges).
func StatsHighWater() map[string]bool {
	t := reflect.TypeOf(Stats{})
	names := make(map[string]bool)
	for i, max := range statsMax {
		if max {
			names[t.Field(i).Name] = true
		}
	}
	return names
}

// Add accumulates o into s: counters sum, high-water marks take the maximum
// (a per-node high-water mark has no meaningful cluster-wide sum).
func (s *Stats) Add(o *Stats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i, max := range statsMax {
		f, v := sv.Field(i), ov.Field(i).Int()
		if !max {
			f.SetInt(f.Int() + v)
		} else if v > f.Int() {
			f.SetInt(v)
		}
	}
}

// snapshot copies a Stats value that is being counted into concurrently.
func (s *Stats) snapshot() *Stats {
	out := &Stats{}
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(out).Elem()
	for i := range statsMax {
		ov.Field(i).SetInt(atomic.LoadInt64(sv.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// Stats returns a snapshot of this node runtime's counters. The
// scheduler-layer counters (queue depth, handoffs, goroutines started,
// ticket waits) live in the scheduler itself and are merged in here.
func (rt *Runtime) Stats() *Stats {
	s := rt.stats.snapshot()
	ss := rt.sched.Stats()
	s.QueueHighWater = ss.QueueHighWater
	s.DrainerHandoffs = ss.Handoffs
	s.SchedWorkersStarted = ss.WorkersStarted
	s.SchedTicketWaits = ss.TicketWaits
	return s
}

// Stats aggregates the counters of every node runtime.
func (app *App) Stats() *Stats {
	total := &Stats{}
	for _, rt := range app.runtimes.load() {
		total.Add(rt.Stats())
	}
	return total
}
