package core

import (
	"time"

	"repro/internal/trace"
)

// This file is the engine's observability surface: span recording for
// sampled calls (Config.TraceSample), the merged latency histograms behind
// /metrics, and the live gauges an exporter scrapes. The recording
// discipline is uniform across the engine — every site gates on the
// envelope's trace ID (or the call entry's sampled flag) before touching a
// clock or the ring, so the unsampled hot path pays one predictable branch
// and allocates nothing.

// traceSpan records one span of a sampled call into this node's ring.
func (rt *Runtime) traceSpan(id uint64, kind, name string, start, dur int64) {
	rt.ring.Record(trace.Span{Trace: id, Kind: kind, Node: rt.name, Name: name, Start: start, Dur: dur})
}

// traceQueueWait closes the dispatch-queue interval opened by dispatchToken
// for a sampled envelope: the wait becomes a queue span and a sample in the
// node's queue-wait histogram. Callers gate on env.TraceID.
func (rt *Runtime) traceQueueWait(env *envelope) {
	if env.traceEnqNs == 0 {
		return
	}
	wait := time.Now().UnixNano() - env.traceEnqNs
	if wait < 0 {
		wait = 0
	}
	rt.traceSpan(env.TraceID, "queue", "", env.traceEnqNs, wait)
	rt.qmu.Lock()
	rt.qwait.Add(time.Duration(wait))
	rt.qmu.Unlock()
	env.traceEnqNs = 0
}

// TraceSpans returns the buffered spans of one trace (0 selects every
// buffered trace) recorded by this runtime.
func (rt *Runtime) TraceSpans(id uint64) []trace.Span {
	return rt.ring.Spans(id)
}

// QueueDepth reports the tokens currently sitting in this node's dispatch
// queues, which is every token waiting for its thread — the scheduler's live
// run-queue depth, a saturation gauge.
func (rt *Runtime) QueueDepth() int64 {
	return rt.sched.Pending()
}

// TraceSpans returns the buffered spans of one trace across every node of
// the application, ordered into a timeline (0 selects every buffered
// trace). With multi-process deployments each process only sees its own
// nodes; the kernel control plane merges across processes (dps-kernel
// -trace-dump).
func (app *App) TraceSpans(id uint64) []trace.Span {
	var out []trace.Span
	for _, rt := range app.allRuntimes() {
		out = append(out, rt.ring.Spans(id)...)
	}
	trace.SortSpans(out)
	return out
}

// CallLatency returns the merged call-latency histogram: wall time from
// admission to result delivery of every completed call, across the
// registry's shards. Recorded for every call, sampled or not — one clock
// read per call, amortized over its whole graph execution.
func (app *App) CallLatency() *trace.Hist {
	out := &trace.Hist{}
	for i := range app.callreg.shards {
		sh := &app.callreg.shards[i]
		sh.mu.Lock()
		out.Merge(&sh.lat)
		sh.mu.Unlock()
	}
	return out
}

// QueueWait returns the merged dispatch-queue wait histogram of sampled
// executions across the application's nodes. Empty unless TraceSample is
// set: the engine only measures queue waits it already traced.
func (app *App) QueueWait() *trace.Hist {
	out := &trace.Hist{}
	for _, rt := range app.allRuntimes() {
		rt.qmu.Lock()
		out.Merge(&rt.qwait)
		rt.qmu.Unlock()
	}
	return out
}

// QueueDepth sums the live dispatch-queue depth over the application's
// nodes (see Runtime.QueueDepth).
func (app *App) QueueDepth() int64 {
	var n int64
	for _, rt := range app.allRuntimes() {
		n += rt.sched.Pending()
	}
	return n
}
