// Package perf is the repository's benchmark (cmd/dps-perf): five workloads
// built through the public repro/dps façade on three tcptransport nodes over
// real loopback sockets in one process, eight end-to-end metrics taken with
// tracing off, and a per-layer budget measured from outside the engine —
// layer probes calling each layer's public functions, and a traced run whose
// spans come only from the benchmark's own operation bodies and a
// transport.Transport decorator. README.md in this directory explains why
// each workload exists and how the layer metrics are meant to move the
// end-to-end ones.
package perf

// Version identifies the benchmark's definition (workloads, metric names and
// how they are measured). -compare refuses reports of different versions.
const Version = 1

// Metric declares one reported number. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; a test keeps the two in
// step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare reports a regression. Per-layer metrics have
	// none: they explain, they do not gate.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric it is
	// expected to move and where (written down before measuring).
	Moves string
}

// EndToEnd metrics are what a user of the engine sees, measured with tracing
// off. One op is a token on the rings, a call on call_fan, an iteration on
// life_halo; latency is per op (on the rings: split post to merge entry). The
// time-based ones — all but the allocation counts and the peak RSS — are in
// yardstick-normalised time (yardstick.go): on the quiet reference host that
// is wall time, on a slowed host it is what the wall time would have been.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	tputRing1k  = "throughput_ops_s on ring_1k, ring_1k_batch"
	tputRing64k = "throughput_ops_s, alloc_bytes_per_op on ring_64k"
	latFan      = "latency_p50_ms, throughput_ops_s on call_fan; nothing on the rings"
	p99FanLife  = "latency_p99_ms on call_fan, life_halo"
)

// PerLayer metrics come from the layer probes (first block) and the traced
// run (second block). Their durations are in yardstick-normalised time too,
// so that probe costs and end-to-end times of one report add up.
var PerLayer = []Metric{
	{Name: "serial.encode_ns", Unit: "ns", Better: "lower", Moves: "x3 hops: " + tputRing1k + "; " + tputRing64k},
	{Name: "serial.decode_ns", Unit: "ns", Better: "lower", Moves: "x3 hops: " + tputRing1k + "; " + tputRing64k},
	{Name: "serial.encode_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op everywhere; " + tputRing64k},
	{Name: "serial.decode_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op everywhere; " + tputRing64k},
	{Name: "serial.encoded_bytes", Unit: "B", Better: "lower", Moves: "transport.bytes_per_op, then " + tputRing64k},
	{Name: "sched.enqueue_run_ns", Unit: "ns", Better: "lower", Moves: tputRing1k + "; no change on ring_64k"},
	{Name: "sched.enqueue_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on the rings and call_fan"},
	{Name: "flowctl.gate_ns", Unit: "ns", Better: "lower", Moves: tputRing1k + "; no change on ring_64k"},
	{Name: "flowctl.credits_ns", Unit: "ns", Better: "lower", Moves: latFan},
	{Name: "place.lookup_ns", Unit: "ns", Better: "lower", Moves: tputRing1k + " (one lookup per post)"},
	{Name: "callreg.cycle_ns", Unit: "ns", Better: "lower", Moves: latFan},
	{Name: "core.local_call_ns", Unit: "ns", Better: "lower", Moves: latFan + "; engine floor per op elsewhere"},
	{Name: "core.local_call_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on the same workload"},
	{Name: "core.serialized_call_ns", Unit: "ns", Better: "lower", Moves: "minus core.local_call_ns = serial + link framing without a socket: " + tputRing1k},
	{Name: "core.serialized_call_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on the same workload"},
	{Name: "dps.facade_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on call_fan (expected ~0)"},
	{Name: "tcptransport.frame_ns", Unit: "ns", Better: "lower", Moves: "x transport.frames_per_op: " + tputRing1k},
	{Name: "tcptransport.rtt_ns", Unit: "ns", Better: "lower", Moves: latFan},
	{Name: "inproc.frame_ns", Unit: "ns", Better: "lower", Moves: "floor under tcptransport.frame_ns; moves nothing end to end"},

	{Name: "call.root_ns_p50", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on call_fan, life_halo"},
	{Name: "call.root_self_ns_p50", Unit: "ns", Better: "lower", Moves: "call time outside the benchmark's operation bodies: latency_p50_ms on call_fan"},
	{Name: "op.body_share", Unit: "%", Better: "higher", Moves: "caps the gain of any engine change on life_halo at 1 - share"},
	{Name: "op.body_ns_per_op", Unit: "ns", Better: "lower", Moves: "the benchmark's own work per op; should not move with engine changes"},
	{Name: "hop.transit_ns_p50", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on call_fan; rises when link.tokens_per_frame rises"},
	{Name: "hop.transit_ns_p99", Unit: "ns", Better: "lower", Moves: p99FanLife},
	{Name: "transport.send_ns_p50", Unit: "ns", Better: "lower", Moves: tputRing1k},
	{Name: "transport.send_share", Unit: "%", Better: "lower", Moves: "cpu_us_per_op on the rings"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s up, cpu_us_per_op down on ring_1k_batch"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower", Moves: tputRing64k},
	{Name: "transport.send_errors", Unit: "count", Better: "lower", Moves: "ops_failed everywhere (expected 0)"},
	{Name: "link.recv_handle_ns_p50", Unit: "ns", Better: "lower", Moves: tputRing1k},
	{Name: "link.recv_share", Unit: "%", Better: "lower", Moves: "cpu_us_per_op on the rings"},
	{Name: "link.tokens_per_frame", Unit: "count", Better: "higher", Moves: "transport.frames_per_op down on ring_1k_batch; risk: hop.transit_ns_p50 up on call_fan"},
	{Name: "link.batched_frames_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s on ring_1k_batch; 0 on unbatched workloads"},
	{Name: "link.engine_bytes_per_op", Unit: "B", Better: "lower", Moves: tputRing64k},
	{Name: "core.remote_share", Unit: "%", Better: "lower", Moves: "share of token deliveries that pay serial + wire: throughput_ops_s everywhere"},
	{Name: "groups.opened_per_op", Unit: "count", Better: "lower", Moves: latFan},
	{Name: "groups.acks_per_op", Unit: "count", Better: "lower", Moves: tputRing1k + "; " + latFan},
	{Name: "flowctl.stalls_per_kop", Unit: "count", Better: "lower", Moves: p99FanLife},
	{Name: "sched.queue_high_water", Unit: "count", Better: "lower", Moves: p99FanLife},
	{Name: "sched.handoffs_per_kop", Unit: "count", Better: "lower", Moves: p99FanLife},
	{Name: "sched.queue_wait_ns_p50", Unit: "ns", Better: "lower", Moves: p99FanLife},
	{Name: "core.call_latency_ns_p50", Unit: "ns", Better: "lower", Moves: "cross-checks call.root_ns_p50"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "latency_p99_ms everywhere"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "follows alloc_bytes_per_op; cpu_us_per_op on ring_64k"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Moves: "traced / untraced throughput_ops_s: how far the traced run's numbers can be trusted"},
}
