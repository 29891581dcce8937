package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/dps"
	"repro/internal/trace"
)

// Value is one reported number. A time-based end-to-end metric is the median
// of its per-window (setup_s: per-set-up) values in yardstick-normalised time
// (see yardstick.go); Q1 and Q3 are the quartiles of those values, which is
// what -compare judges the run-to-run spread by, and Wall is the median of the
// same values as the clock gave them, before normalisation.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Wall  float64 `json:"wall,omitempty"`
}

// WorkloadResult is everything one workload reported.
type WorkloadResult struct {
	Name           string `json:"name"`
	Correct        bool   `json:"correct"`
	Error          string `json:"error,omitempty"`
	OpsAttempted   int64  `json:"ops_attempted"`
	OpsFailed      int64  `json:"ops_failed"`
	LatencySamples int64  `json:"latency_samples"`
	Windows        int    `json:"windows,omitempty"`
	// HostSlowness is the median over the measured phase's windows of how
	// many times slower than nominal the host ran the yardstick.
	HostSlowness float64          `json:"host_slowness,omitempty"`
	EndToEnd     map[string]Value `json:"end_to_end,omitempty"`
	PerLayer     map[string]Value `json:"per_layer,omitempty"`
}

// runConfig is how long each phase of a workload runs.
type runConfig struct {
	seed     int64
	procs    int
	setups   int           // set-ups timed for setup_s (the last one is measured on)
	measured time.Duration // untraced measured phase
	traced   time.Duration // traced run
	segment  time.Duration // one stretch of load between two yardstick slices
	window   time.Duration // load time per window
	probeFor time.Duration // target length of one probe batch
	endToEnd bool
	layers   bool
	traceOut *traceWriter // receives each traced run's spans when non-nil
	yard     *yardstick   // the workload's, set by runWorkload; nil: nothing is normalised
	watchdog time.Duration
}

// engineSampling is the engine's own trace sampling in the traced run, which
// feeds App.QueueWait. Sampling is per call and a ring run makes only some
// forty calls, so at the customary 0.01 most traced ring runs would sample
// none and report no queue wait at all; a sampled ring call also bypasses the
// batcher, so the rate stays low enough to leave ring_1k_batch's wire alone.
const engineSampling = 0.05

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// isolate separates a workload from whatever ran before it in this process:
// it collects the garbage, returns freed memory to the OS (so the GC paces
// itself, and sync.Pools empty, as in a fresh process) and restarts the
// kernel's peak-RSS counter. The last is Linux's /proc/self/clear_refs; where
// it is missing the peak simply stays that of the whole process.
func isolate() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since isolate: VmHWM where /proc has it,
// else getrusage's whole-process peak (Linux reports both in KiB).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return float64(rusage().Maxrss) / 1024
}

// armWatchdog makes a hung workload fail loudly instead of stalling the run:
// it dumps every goroutine and exits non-zero. The returned func disarms it.
func armWatchdog(name string, d time.Duration) (disarm func()) {
	timer := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "dps-perf: watchdog: workload %s still running after %v; goroutines:\n", name, d)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { timer.Stop() }
}

// setUp brings one cluster up and builds and warms the workload on it,
// returning how long that took. The warm-up state is verified after the
// clock stops.
func setUp(def workloadDef, cfg runConfig, m *meter, t *tracer) (*cluster, driver, time.Duration, error) {
	opts := def.opts
	if t != nil {
		opts = append(append([]dps.Option(nil), opts...), dps.WithTraceSampling(engineSampling))
	}
	start := time.Now()
	c, err := newCluster(opts, t, def.foreignBodies)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := def.build(&env{app: c.app, nodes: nodeNames, seed: cfg.seed, procs: cfg.procs, m: m, t: t})
	if err == nil {
		err = d.run(def.warmOps)
	}
	took := time.Since(start)
	if err == nil {
		err = d.check()
	}
	if err != nil {
		c.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return c, d, took, nil
}

// window is one stretch of the measured phase: a few segments of load, each
// followed by a yardstick slice.
type window struct {
	ops            int64
	busy           time.Duration // wall time of the segments, yardstick slices excluded
	cpu            time.Duration // process CPU time of the segments
	mallocs, bytes uint64        // heap objects and bytes allocated (the yardstick allocates nothing)
	host           gauge
	p50, p99       float64 // latency of the ops completed in the window, ns
}

func (w window) rate() float64     { return ratio(float64(w.ops), w.busy.Seconds()) }
func (w window) cpuPerOp() float64 { return ratio(float64(w.cpu.Nanoseconds())/1e3, float64(w.ops)) }

// phase is one load run.
type phase struct {
	windows    []window
	samples    int64 // latency samples behind the windows' percentiles
	goroutines int   // peak
}

// segment runs the workload's generators for about dur, stops them and waits
// for the ops in flight (bounded by the call deadlines). Between two segments
// no generator runs, which is where a yardstick slice fits.
func segment(d driver, m *meter, dur time.Duration, w *window) (goroutines int) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	ops, cpu, start := m.ops.Load(), cpuTime(), time.Now()
	for g := 0; g < d.generators(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d.generate(g, &stop)
		}(g)
	}
	time.Sleep(dur)
	goroutines = runtime.NumGoroutine()
	stop.Store(true)
	wg.Wait()
	w.busy += time.Since(start)
	w.cpu += cpuTime() - cpu
	w.ops += m.ops.Load() - ops
	return goroutines
}

// load alternates segments of load and yardstick slices for total, closing a
// window whenever cfg.window of load has accumulated; what is left of an
// unfinished window at the end is not reported.
func load(d driver, m *meter, cfg runConfig, total time.Duration) phase {
	var (
		p  phase
		w  window
		ms runtime.MemStats
	)
	m.drain(nil) // the warm-up's latencies
	runtime.ReadMemStats(&ms)
	closeWindow := func() {
		var h latHist
		m.drain(&h)
		w.p50, w.p99 = h.quantile(0.50), h.quantile(0.99)
		p.samples += h.n
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		runtime.ReadMemStats(&ms)
		w.mallocs, w.bytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
		p.windows = append(p.windows, w)
		w = window{}
	}
	w.host.take(cfg.yard)
	for start := time.Now(); time.Since(start) < total; {
		p.goroutines = max(p.goroutines, segment(d, m, cfg.segment, &w))
		w.host.take(cfg.yard)
		if w.busy >= cfg.window {
			closeWindow()
		}
	}
	if len(p.windows) == 0 && w.busy > 0 { // a phase shorter than one window
		closeWindow()
	}
	return p
}

func (p phase) ops() (n int64) {
	for _, w := range p.windows {
		n += w.ops
	}
	return n
}

func (p phase) cpu() (d time.Duration) {
	for _, w := range p.windows {
		d += w.cpu
	}
	return d
}

// slowness is the median of the windows'.
func (p phase) slowness() float64 {
	var s []float64
	for _, w := range p.windows {
		s = append(s, w.host.slowness())
	}
	if len(s) == 0 {
		return 1
	}
	return median(s)
}

func (p phase) allocated() (mallocs, bytes uint64) {
	for _, w := range p.windows {
		mallocs += w.mallocs
		bytes += w.bytes
	}
	return
}

// series returns f of every window as the clock gave it and in
// yardstick-normalised time. A rate (perTime) grows with the host's slowness
// when normalised; a duration shrinks.
func (p phase) series(f func(window) float64, perTime bool) (wall, norm []float64) {
	for _, w := range p.windows {
		v, s := f(w), w.host.slowness()
		wall = append(wall, v)
		if perTime {
			norm = append(norm, v*s)
		} else {
			norm = append(norm, v/s)
		}
	}
	return wall, norm
}

// summarise builds a time-based Value from its per-window values.
func summarise(unit string, wall, norm []float64) Value {
	q1, q3 := quartiles(norm)
	return Value{Value: median(norm), Unit: unit, Q1: q1, Q3: q3, Wall: median(wall)}
}

func (p phase) metric(unit string, f func(window) float64, perTime bool) Value {
	wall, norm := p.series(f, perTime)
	return summarise(unit, wall, norm)
}

// timedSetUp is one set-up's duration and the yardstick slices taken around it.
type timedSetUp struct {
	took time.Duration
	host gauge
}

// runWorkload runs every requested phase of one workload. It returns an
// error only when the workload could not be run at all; a run that completed
// with failed or wrong ops reports them in the result.
func runWorkload(def workloadDef, cfg runConfig) (*WorkloadResult, error) {
	defer armWatchdog(def.name, cfg.watchdog)()
	isolate()
	res := &WorkloadResult{Name: def.name, Correct: true}

	body, share := fillBody(), 0.4
	if def.yardBody != nil {
		body, share = def.yardBody(cfg.seed), def.yardSocketShare
	}
	y, err := newYardstick(body, share)
	if err != nil {
		return nil, err
	}
	defer y.close()
	cfg.yard = y

	// Untraced: set up cfg.setups times (setup_s is their median), measure on
	// the last cluster.
	var (
		setUps []timedSetUp
		c      *cluster
		d      driver
		m      *meter
	)
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
		}
		var s timedSetUp
		s.host.take(cfg.yard)
		m = newMeter(cfg.procs)
		if c, d, s.took, err = setUp(def, cfg, m, nil); err != nil {
			return nil, err
		}
		s.host.take(cfg.yard)
		setUps = append(setUps, s)
	}
	p := load(d, m, cfg, cfg.measured)
	rss := peakRSSMB()
	finishErr := d.finish()
	c.close()
	res.tally(m, finishErr)

	_, rates := p.series(window.rate, true)
	untracedRate := median(rates)
	res.LatencySamples, res.Windows = p.samples, len(p.windows)
	res.HostSlowness = p.slowness()
	if cfg.endToEnd {
		res.EndToEnd = endToEnd(p, setUps, rss)
	}
	if !cfg.layers {
		return res, y.err
	}

	// Traced: a fresh cluster behind the decorators, engine sampling on.
	t := newTracer()
	tm := newMeter(cfg.procs)
	tc, td, _, err := setUp(def, cfg, tm, t)
	if err != nil {
		return nil, fmt.Errorf("traced %w", err)
	}
	before := readEngineState(tc)
	tp := load(td, tm, cfg, cfg.traced)
	after := readEngineState(tc)
	finishErr = td.finish()
	tc.close()
	res.tally(tm, finishErr)
	agg := t.aggregates()
	spans, fullAt := t.kept()
	var cpuPerOp float64
	res.PerLayer, cpuPerOp = tracedMetrics(agg, median(rootSelfTimes(spans, fullAt)), tp, before, after, untracedRate)
	if cfg.traceOut != nil {
		tf := traceFile{Workload: def.name, Seed: cfg.seed, SpansKept: len(spans), Aggregates: agg, Spans: spans}
		for _, a := range agg {
			tf.SpansSeen += a.Count
		}
		if err := cfg.traceOut.add(tf); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}

	probes, err := runProbes(def, cfg)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		res.PerLayer[name] = v
	}
	if def.bodyProbe != nil {
		// The bodies ran un-timed inside the engine: take their cost from
		// the sequential probe and its share from the traced run's CPU.
		body := def.bodyProbe(cfg)
		res.PerLayer["op.body_ns_per_op"] = ns(body)
		res.PerLayer["op.body_share"] = Value{Value: 100 * ratio(body, cpuPerOp), Unit: "%"}
	}
	return res, y.err
}

// tally folds one phase's op counts and verdict into the result.
func (r *WorkloadResult) tally(m *meter, finishErr error) {
	attempted, ops := m.attempted.Load(), m.ops.Load()
	r.OpsAttempted += attempted
	r.OpsFailed += attempted - ops
	m.errMu.Lock()
	err := m.firstErr
	m.errMu.Unlock()
	if err == nil {
		err = finishErr
	}
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
	if m.wrong.Load() > 0 || finishErr != nil {
		r.Correct = false
	}
}

// endToEnd derives the end-to-end metrics of the measured phase. The
// time-based ones are medians over the windows (set-ups) in
// yardstick-normalised time; allocations per op do not depend on the host's
// speed and are taken over the whole phase.
func endToEnd(p phase, setUps []timedSetUp, rss float64) map[string]Value {
	out := make(map[string]Value, len(EndToEnd))
	var wall, norm []float64
	for _, s := range setUps {
		wall = append(wall, s.took.Seconds())
		norm = append(norm, s.took.Seconds()/s.host.slowness())
	}
	out["setup_s"] = summarise("s", wall, norm)
	out["throughput_ops_s"] = p.metric("1/s", window.rate, true)
	out["latency_p50_ms"] = p.metric("ms", func(w window) float64 { return w.p50 / 1e6 }, false)
	out["latency_p99_ms"] = p.metric("ms", func(w window) float64 { return w.p99 / 1e6 }, false)
	out["cpu_us_per_op"] = p.metric("us", window.cpuPerOp, false)
	ops := float64(max(p.ops(), 1))
	mallocs, bytes := p.allocated()
	out["allocs_per_op"] = Value{Value: float64(mallocs) / ops, Unit: "count"}
	out["alloc_bytes_per_op"] = Value{Value: float64(bytes) / ops, Unit: "B"}
	out["peak_rss_mb"] = Value{Value: rss, Unit: "MB"}
	return out
}

// engineState is what the traced run reads off the engine, the decorators
// and the runtime, taken when the traced load starts and again when it ends.
type engineState struct {
	stats               *dps.Stats
	frames, bytes, errs int64
	gcPause             uint64
	gcCycles            uint32
	queueWait, calls    *trace.Hist // cumulative since set-up
}

func readEngineState(c *cluster) engineState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e := engineState{stats: c.app.Stats(), gcPause: ms.PauseTotalNs, gcCycles: ms.NumGC,
		queueWait: c.app.QueueWait(), calls: c.app.CallLatency()}
	e.frames, e.bytes, e.errs = c.transportTotals()
	return e
}

// interpolated reads a quantile off one of the engine's public histograms,
// interpolating inside the bucket that holds the rank so the figure is not
// pinned to a bucket bound.
func interpolated(h *trace.Hist, q float64) float64 {
	if h.Len() == 0 {
		return 0
	}
	target := q * float64(h.Len())
	var seen float64
	var lower time.Duration
	result := float64(h.Max())
	found := false
	h.Buckets(func(upper time.Duration, count int64) {
		if !found && seen+float64(count) >= target {
			lo := max(lower, h.Min())
			hi := min(upper, h.Max())
			result = float64(lo) + float64(hi-lo)*(target-seen)/float64(count)
			found = true
		}
		seen += float64(count)
		lower = upper
	})
	return result
}

// ratio is a/b, zero when b is: a phase too short to complete an op must not
// put an infinity in the report.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics derives the traced run's per-layer metrics from the span
// aggregates and root self time (read once the cluster is closed: until then
// transport goroutines may still be recording), the decorators' counters,
// App.Stats deltas and the engine's public histograms.
func tracedMetrics(agg map[string]aggJSON, rootSelf float64, p phase, a, b engineState, untracedRate float64) (out map[string]Value, cpuNsPerOp float64) {
	ops := float64(p.ops())
	cpu := float64(p.cpu().Nanoseconds()) // of the segments: the yardstick's is not the workload's
	_, rates := p.series(window.rate, true)
	share := func(ns int64) float64 { return 100 * ratio(float64(ns), cpu) }
	remote := float64(b.stats.TokensRemote - a.stats.TokensRemote)
	local := float64(b.stats.TokensLocal - a.stats.TokensLocal)
	perOp := func(now, then int64) float64 { return ratio(float64(now-then), ops) }

	out = map[string]Value{
		"call.root_ns_p50":           {Value: agg["call"].P50Ns, Unit: "ns"},
		"call.root_self_ns_p50":      {Value: rootSelf, Unit: "ns"},
		"op.body_share":              {Value: share(agg["op"].TotalNs), Unit: "%"},
		"op.body_ns_per_op":          {Value: perOp(agg["op"].TotalNs, 0), Unit: "ns"},
		"hop.transit_ns_p50":         {Value: agg["hop"].P50Ns, Unit: "ns"},
		"hop.transit_ns_p99":         {Value: agg["hop"].P99Ns, Unit: "ns"},
		"transport.send_ns_p50":      {Value: agg["send"].P50Ns, Unit: "ns"},
		"transport.send_share":       {Value: share(agg["send"].TotalNs), Unit: "%"},
		"transport.frames_per_op":    {Value: perOp(b.frames, a.frames), Unit: "count"},
		"transport.bytes_per_op":     {Value: perOp(b.bytes, a.bytes), Unit: "B"},
		"transport.send_errors":      {Value: float64(b.errs - a.errs), Unit: "count"},
		"link.recv_handle_ns_p50":    {Value: agg["recv"].P50Ns, Unit: "ns"},
		"link.recv_share":            {Value: share(agg["recv"].TotalNs), Unit: "%"},
		"link.tokens_per_frame":      {Value: ratio(remote, float64(b.frames-a.frames)), Unit: "count"},
		"link.batched_frames_per_op": {Value: perOp(b.stats.FramesBatched, a.stats.FramesBatched), Unit: "count"},
		"link.engine_bytes_per_op":   {Value: perOp(b.stats.BytesSent, a.stats.BytesSent), Unit: "B"},
		"core.remote_share":          {Value: 100 * ratio(remote, remote+local), Unit: "%"},
		"groups.opened_per_op":       {Value: perOp(b.stats.GroupsOpened, a.stats.GroupsOpened), Unit: "count"},
		"groups.acks_per_op":         {Value: perOp(b.stats.AcksSent, a.stats.AcksSent), Unit: "count"},
		"flowctl.stalls_per_kop":     {Value: 1000 * perOp(b.stats.WindowStalls, a.stats.WindowStalls), Unit: "count"},
		"sched.queue_high_water":     {Value: float64(b.stats.QueueHighWater), Unit: "count"},
		"sched.handoffs_per_kop":     {Value: 1000 * perOp(b.stats.DrainerHandoffs, a.stats.DrainerHandoffs), Unit: "count"},
		"sched.queue_wait_ns_p50":    {Value: interpolated(b.queueWait, 0.5), Unit: "ns"},
		"core.call_latency_ns_p50":   {Value: interpolated(b.calls, 0.5), Unit: "ns"},
		"runtime.gc_pause_ms":        {Value: float64(b.gcPause-a.gcPause) / 1e6, Unit: "ms"},
		"runtime.gc_cycles":          {Value: float64(b.gcCycles - a.gcCycles), Unit: "count"},
		"runtime.goroutines_peak":    {Value: float64(p.goroutines), Unit: "count"},
		"trace.overhead_ratio":       {Value: ratio(median(rates), untracedRate), Unit: "ratio"},
	}
	// Durations, like the end-to-end ones, in yardstick-normalised time.
	slow := p.slowness()
	for name, v := range out {
		if v.Unit == "ns" || v.Unit == "ms" {
			v.Value /= slow
			out[name] = v
		}
	}
	return out, ratio(cpu, ops) / slow
}
