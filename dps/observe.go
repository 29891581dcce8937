package dps

import (
	"encoding/json"
	"net/http"
	"runtime"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trace/promtext"
)

// Span is one recorded interval of a sampled call's execution: a post, a
// queue wait, an operation body, a flow-control stall, a wire transfer, a
// relay forward, a failover replay or the result delivery. Spans of one
// call share its trace ID (the call ID) and carry the recording node, so a
// timeline assembled from every node reconstructs the token journey.
type Span = trace.Span

// Hist is a fixed-footprint latency histogram (see App.CallLatency).
type Hist = trace.Hist

// TraceSpans returns the spans of one sampled call (its trace ID is the
// call ID) buffered across the application's nodes, ordered into a
// timeline. Zero selects every buffered trace. Sampling is enabled with
// WithTraceSampling; with it off the result is always empty.
func (a *App) TraceSpans(id uint64) []Span { return a.core.TraceSpans(id) }

// TraceDump renders the timeline of TraceSpans(id) as indented JSON — the
// same shape dps-kernel -trace-dump prints for multi-process deployments.
func (a *App) TraceDump(id uint64) ([]byte, error) {
	return json.MarshalIndent(a.core.TraceSpans(id), "", "  ")
}

// CallLatency returns the merged call-latency histogram: wall time from
// admission to result delivery of every completed call. Always recorded,
// sampled or not.
func (a *App) CallLatency() *Hist { return a.core.CallLatency() }

// QueueWait returns the merged dispatch-queue wait histogram of sampled
// executions; empty unless WithTraceSampling is set.
func (a *App) QueueWait() *Hist { return a.core.QueueWait() }

// QueueDepth reports the tokens currently sitting in the application's
// dispatch queues, which is every token waiting for its thread — a live
// saturation gauge.
func (a *App) QueueDepth() int64 { return a.core.QueueDepth() }

// MetricsHandler returns an http.Handler serving the application's state in
// the Prometheus text exposition format: every Stats counter (prefixed
// dps_), the live pending-call and queue-depth gauges, the process
// goroutine count, and the call-latency and queue-wait histograms. Mount it
// wherever the process serves debug HTTP:
//
//	http.Handle("/metrics", app.MetricsHandler())
func (a *App) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := &promtext.Encoder{}
		enc.Struct("dps", a.Stats(), core.StatsHighWater())
		enc.Gauge("dps_pending_calls", "Graph calls admitted and not yet settled.", float64(a.PendingCalls()))
		enc.Gauge("dps_queue_depth", "Tokens sitting in dispatch queues right now.", float64(a.QueueDepth()))
		enc.Gauge("dps_goroutines", "Goroutines in this process.", float64(runtime.NumGoroutine()))
		enc.Histogram("dps_call_latency_seconds", "Call wall time, admission to result delivery.", a.CallLatency())
		enc.Histogram("dps_queue_wait_seconds", "Dispatch-queue wait of sampled executions.", a.QueueWait())
		w.Header().Set("Content-Type", promtext.ContentType)
		w.Write(enc.Bytes())
	})
}
