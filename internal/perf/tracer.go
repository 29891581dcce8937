package perf

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// processStart anchors every stamp the benchmark takes: tokens carry their
// creation time as nanoseconds since it, so stamps compare across the three
// nodes (one process, one monotonic clock).
var processStart = time.Now()

func nowNs() int64 { return int64(time.Since(processStart)) }

// Span kinds. Every span is recorded by the benchmark's own code — the engine
// is not instrumented.
const (
	kindCall = iota // root: one graph call, timed by the generator
	kindOp          // a stretch of a benchmark-owned operation body, between calls into the engine
	kindHop         // stamp at post -> next body entry (serial + link + socket + queue)
	kindSend        // transport decorator: one Transport.Send
	kindRecv        // transport decorator: one invocation of the engine's receive handler
	nKinds
)

var kindNames = [nKinds]string{"call", "op", "hop", "send", "recv"}

// Span is one recorded interval, in nanoseconds since the process started.
// Spans of one call share its root span's ID as Parent; transport spans have
// no visible cause and carry Parent 0.
type Span struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the raw spans kept for the trace file. Aggregates (count,
// total time, duration histogram per kind) cover every span; only the head of
// the run is kept verbatim — on ring_1k, whose calls leave about 65 000 spans
// each, that is three complete calls. Root call spans are few and kept apart
// (maxCalls).
const (
	maxSpans = 200_000
	maxCalls = 50_000
)

type kindAgg struct {
	mu    sync.Mutex
	total int64 // summed durations
	hist  latHist
}

// tracer keeps spans in memory; nothing is written until the run ends. A nil
// *tracer is the untraced run: the helpers the operation bodies use test for
// it first, so the measured phase pays one predictable branch per site.
type tracer struct {
	aggs   [nKinds]kindAgg
	calls  []Span // guarded by aggs[kindCall].mu
	nextID atomic.Uint64

	spansMu sync.Mutex
	spans   []Span // preallocated to maxSpans
	fullAt  int64  // when spans overflowed; calls ending later lack children

	// In-flight frame stamps per directed node pair, for the frame-level
	// transit the decorator measures (see timedTransport).
	flightMu sync.Mutex
	flight   map[[2]string]*stampQueue
}

func newTracer() *tracer {
	t := &tracer{spans: make([]Span, 0, maxSpans), flight: make(map[[2]string]*stampQueue)}
	t.nextID.Store(1 << 32) // call numbers (root span IDs) stay below
	return t
}

// add records one finished span; id zero asks for a fresh one.
func (t *tracer) add(kind int, name, node string, id, parent uint64, start, end int64) {
	a := &t.aggs[kind]
	a.mu.Lock()
	a.total += end - start
	a.hist.record(end - start)
	if kind == kindCall && len(t.calls) < maxCalls {
		t.calls = append(t.calls, Span{Kind: kindNames[kind], Name: name, Node: node, ID: id, Parent: parent, Start: start, End: end})
	}
	a.mu.Unlock()
	if kind == kindCall {
		return
	}
	t.spansMu.Lock()
	switch {
	case len(t.spans) < maxSpans:
		if id == 0 {
			id = t.nextID.Add(1)
		}
		t.spans = append(t.spans, Span{Kind: kindNames[kind], Name: name, Node: node, ID: id, Parent: parent, Start: start, End: end})
	case t.fullAt == 0:
		t.fullAt = end
	}
	t.spansMu.Unlock()
}

// kept returns the raw spans retained for the trace file, calls first, and
// when the span buffer filled (zero if it never did).
func (t *tracer) kept() (spans []Span, fullAt int64) {
	a := &t.aggs[kindCall]
	a.mu.Lock()
	spans = append(spans, t.calls...)
	a.mu.Unlock()
	t.spansMu.Lock()
	defer t.spansMu.Unlock()
	return append(spans, t.spans...), t.fullAt
}

// selfTime is a span's duration minus the part of it that its children cover:
// children are clipped to the parent, and overlapping children are subtracted
// once.
func selfTime(start, end int64, children [][2]int64) int64 {
	sorted := append([][2]int64(nil), children...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	covered, until := int64(0), start // everything before until is counted
	for _, ch := range sorted {
		from, to := max(ch[0], until), min(ch[1], end)
		if to > from {
			covered += to - from
			until = to
		}
	}
	return end - start - covered
}

// opSpan records the stretches of one benchmark-owned operation body during
// which the benchmark's own code runs: the body pauses it around every call
// into the engine (post, next), so a stretch never contains engine time and
// the stretches of one call, from all nodes, are the children its root span's
// self time is computed against. The zero value (untraced run) does nothing.
type opSpan struct {
	t          *tracer
	name, node string
	call       uint64
	start      int64
}

// op starts the first stretch of a body running for the given call.
func (t *tracer) op(name, node string, call uint64) opSpan {
	if t == nil {
		return opSpan{}
	}
	return opSpan{t: t, name: name, node: node, call: call, start: nowNs()}
}

// pause ends the current stretch: the body is about to call into the engine,
// or to return.
func (s *opSpan) pause() {
	if s.t != nil {
		s.t.add(kindOp, s.name, s.node, 0, s.call, s.start, nowNs())
	}
}

// resume starts the next stretch: the engine call returned.
func (s *opSpan) resume() {
	if s.t != nil {
		s.start = nowNs()
	}
}

// hop records the transit of a token stamped sent when it left the previous
// body and entering this one now.
func (t *tracer) hop(name, node string, call uint64, sent, now int64) {
	if t != nil {
		t.add(kindHop, name, node, 0, call, sent, now)
	}
}

// stampQueue is a FIFO of send stamps for one directed node pair.
type stampQueue struct {
	mu     sync.Mutex
	stamps []int64
	head   int
}

func (q *stampQueue) push(v int64) {
	q.mu.Lock()
	if q.head > 1024 && q.head*2 > len(q.stamps) {
		q.stamps = append(q.stamps[:0], q.stamps[q.head:]...)
		q.head = 0
	}
	q.stamps = append(q.stamps, v)
	q.mu.Unlock()
}

func (q *stampQueue) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.stamps) {
		return 0, false
	}
	v := q.stamps[q.head]
	q.head++
	return v, true
}

func (t *tracer) queue(src, dst string) *stampQueue {
	key := [2]string{src, dst}
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	q := t.flight[key]
	if q == nil {
		q = &stampQueue{}
		t.flight[key] = q
	}
	return q
}

// timedTransport decorates one node's transport for the traced run: it times
// every Send and every invocation of the engine's receive handler, and counts
// frames, bytes and send errors. It neither copies nor retains payloads —
// ownership passes straight through, as the Transport contract requires — and
// adds no queueing, so per-pair FIFO is the inner transport's. It does not
// implement transport.Colocated: wrapped nodes must keep paying the wire.
//
// With frameTransit set it also pairs each Send with the handler invocation
// of the same frame on the peer's decorator (per directed pair, in order) and
// records the interval as a hop span. life_halo uses this: its operation
// bodies belong to parlife, so no token carries a stamp.
type timedTransport struct {
	inner        transport.Transport
	t            *tracer
	frameTransit bool

	frames, bytes, errs atomic.Int64
}

func (d *timedTransport) Local() string { return d.inner.Local() }
func (d *timedTransport) Close() error  { return d.inner.Close() }

func (d *timedTransport) Send(dst string, payload []byte) error {
	n := int64(len(payload)) // the payload is the transport's after Send
	start := nowNs()
	if d.frameTransit {
		d.t.queue(d.inner.Local(), dst).push(start)
	}
	err := d.inner.Send(dst, payload)
	end := nowNs()
	d.frames.Add(1)
	d.bytes.Add(n)
	if err != nil {
		d.errs.Add(1)
	}
	d.t.add(kindSend, "send", d.inner.Local()+">"+dst, 0, 0, start, end)
	return err
}

func (d *timedTransport) SetHandler(h transport.Handler) {
	local := d.inner.Local()
	d.inner.SetHandler(func(src string, payload []byte) {
		start := nowNs()
		if d.frameTransit {
			if sent, ok := d.t.queue(src, local).pop(); ok {
				d.t.add(kindHop, "frame", src+">"+local, 0, 0, sent, start)
			}
		}
		h(src, payload)
		end := nowNs()
		d.t.add(kindRecv, "recv", src+">"+local, 0, 0, start, end)
	})
}

var _ transport.Transport = (*timedTransport)(nil)

// traceFile is what -trace-out writes: the kept spans in start order plus the
// per-kind aggregates over every span of the run.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	SpansSeen  int64              `json:"spans_seen"`
	SpansKept  int                `json:"spans_kept"`
	Aggregates map[string]aggJSON `json:"aggregates"`
	Spans      []Span             `json:"spans"`
}

type aggJSON struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

func (t *tracer) aggregates() map[string]aggJSON {
	out := make(map[string]aggJSON, nKinds)
	for k := range t.aggs {
		a := &t.aggs[k]
		a.mu.Lock()
		out[kindNames[k]] = aggJSON{Count: a.hist.n, TotalNs: a.total, P50Ns: a.hist.quantile(0.5), P99Ns: a.hist.quantile(0.99)}
		a.mu.Unlock()
	}
	return out
}

// rootSelfTimes computes each kept call's root self time: the call's duration
// minus the union of the operation-body stretches that ran for it on any node
// — the time the call spent in the engine and on the wire with no benchmark
// code running. Calls that ended after the span buffer filled lack
// children and are skipped.
func rootSelfTimes(spans []Span, fullAt int64) []float64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Kind == kindNames[kindOp] {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Kind == kindNames[kindCall] && (fullAt == 0 || s.End <= fullAt) {
			out = append(out, float64(selfTime(s.Start, s.End, children[s.ID])))
		}
	}
	return out
}

// traceWriter streams the -trace-out file, a JSON array with one traceFile
// per workload, writing each as its workload ends: holding the spans of every
// workload until the end would grow the heap under the workloads that follow
// and so change their GC pacing and allocation figures.
type traceWriter struct {
	f     *os.File
	count int
}

func newTraceWriter(path string) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &traceWriter{f: f}, nil
}

func (w *traceWriter) add(tf traceFile) error {
	sort.SliceStable(tf.Spans, func(a, b int) bool { return tf.Spans[a].Start < tf.Spans[b].Start })
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	sep := ","
	if w.count == 0 {
		sep = "["
	}
	w.count++
	_, err = w.f.Write(append([]byte(sep), data...))
	return err
}

func (w *traceWriter) close() error {
	end := "]\n"
	if w.count == 0 {
		end = "[]\n"
	}
	_, err := w.f.WriteString(end)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
