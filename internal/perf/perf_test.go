package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []Metric                     `json:"end_to_end"`
	PerLayer  []Metric                     `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarationsMatchBenchmarkFile keeps spec.go and BENCHMARK.json in
// step: the gated workloads, same metrics, same units, directions and bounds.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var gated []workloadDef
	for _, w := range workloadDefs {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d gated ones", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), workloads.go %q (%s)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, file, spec []Metric) {
		if len(file) != len(spec) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(file), len(spec))
		}
		for _, m := range spec {
			got, ok := findMetric(file, m.Name)
			if !ok {
				t.Errorf("%s metric %q missing from BENCHMARK.json", kind, m.Name)
				continue
			}
			if got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
				t.Errorf("%s metric %q: BENCHMARK.json {%s %s %v}, spec.go {%s %s %v}", kind, m.Name,
					got.Unit, got.Better, got.Bound, m.Unit, m.Better, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, EndToEnd)
	check("per_layer", bf.PerLayer, PerLayer)
}

func findMetric(list []Metric, name string) (Metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func checkMetricSet(t *testing.T, where string, got map[string]Value, declared []Metric) {
	t.Helper()
	for _, m := range declared {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %q not reported", where, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %q reported in %q, declared %q", where, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %q is %v", where, m.Name, v.Value)
		}
	}
	for name := range got {
		if _, ok := findMetric(declared, name); !ok {
			t.Errorf("%s: reported metric %q is not declared", where, name)
		}
	}
}

// TestQuickSmoke runs all five workloads end to end with 0.3 s phases — real
// sockets, traced run, probes — and validates the report against the
// declarations: every declared metric present, none undeclared, no op failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload over loopback TCP")
	}
	dir := t.TempDir()
	reportPath, tracePath := filepath.Join(dir, "out.json"), filepath.Join(dir, "out.trace.json")
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-quick", "-seed", "5", "-json", reportPath, "-trace-out", tracePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	rep, err := readReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads reported, %d declared", len(rep.Workloads), len(workloadDefs))
	}
	for i, r := range rep.Workloads {
		if r.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q, declared %q", i, r.Name, workloadDefs[i].name)
		}
		if !r.Correct || r.OpsFailed != 0 || r.OpsAttempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", r.Name, r.Correct, r.OpsAttempted, r.OpsFailed, r.Error)
		}
		checkMetricSet(t, r.Name+" end_to_end", r.EndToEnd, EndToEnd)
		checkMetricSet(t, r.Name+" per_layer", r.PerLayer, PerLayer)
		for _, m := range EndToEnd {
			// A 0.3 s phase that completed a handful of ops (life_halo
			// under the race detector) may have a window without one.
			if r.LatencySamples >= 16 && r.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %q is %v; they must never be 0", r.Name, m.Name, r.EndToEnd[m.Name].Value)
			}
		}
		if !strings.Contains(stdout.String(), "== "+r.Name+":") {
			t.Errorf("%s missing from the printed report", r.Name)
		}
	}

	var traces []traceFile
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(workloadDefs) {
		t.Fatalf("%d traces written, want %d", len(traces), len(workloadDefs))
	}
	for _, tf := range traces {
		if tf.SpansKept == 0 || tf.Aggregates["call"].Count == 0 || tf.Aggregates["send"].Count == 0 {
			t.Errorf("%s: trace kept %d spans, %d calls, %d sends", tf.Workload, tf.SpansKept, tf.Aggregates["call"].Count, tf.Aggregates["send"].Count)
		}
	}
}

// TestDriverLine checks the single-workload mode the benchmark driver uses:
// the last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics, holding the end-to-end metrics for
// --trace 0.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload over loopback TCP")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "call_fan", "--seed", "9", "--seconds", "0.3", "--trace", "0", "-quick"}
	if code := Main(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("driver line has keys %v", line)
	}
	var metrics map[string]Value
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	checkMetricSet(t, "driver line", metrics, EndToEnd)
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 100, 200, nil, 100},
		{"one child", 100, 200, [][2]int64{{120, 150}}, 70},
		{"disjoint children", 100, 200, [][2]int64{{110, 120}, {150, 190}}, 50},
		{"overlapping children are subtracted once", 100, 200, [][2]int64{{110, 150}, {130, 170}}, 40},
		{"nested child adds nothing", 100, 200, [][2]int64{{110, 180}, {120, 130}}, 30},
		{"unsorted input", 100, 200, [][2]int64{{160, 170}, {110, 120}}, 80},
		{"child clipped to the parent", 100, 200, [][2]int64{{50, 120}, {190, 300}}, 70},
		{"child outside the parent", 100, 200, [][2]int64{{10, 50}, {250, 300}}, 100},
		{"children cover everything", 100, 200, [][2]int64{{100, 160}, {150, 200}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRootSelfTimes(t *testing.T) {
	spans := []Span{
		{Kind: "call", ID: 1, Start: 0, End: 100},
		{Kind: "op", Parent: 1, Start: 10, End: 40},
		{Kind: "op", Parent: 1, Start: 30, End: 60}, // overlaps the first, on another node
		{Kind: "hop", Parent: 1, Start: 0, End: 100},
		{Kind: "call", ID: 2, Start: 100, End: 300}, // ended after the buffer filled
	}
	got := rootSelfTimes(spans, 250)
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("root self times %v, want [50]", got)
	}
}

// TestDecoratorFIFOAndOwnership drives two senders into one receiver through
// timedTransport: frames of each pair arrive in order, the handler gets the
// very bytes that were sent (no copy, nothing retained), and every frame is
// counted and paired with its send for the frame transit.
func TestDecoratorFIFOAndOwnership(t *testing.T) {
	const frames = 2000
	fabric := transport.NewInproc()
	defer fabric.Close()
	tr := newTracer()
	wrap := func(name string) *timedTransport {
		n, err := fabric.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		return &timedTransport{inner: n, t: tr, frameTransit: true}
	}
	a, b, dst := wrap("a"), wrap("b"), wrap("dst")

	sent := map[string][][]byte{"a": make([][]byte, frames), "b": make([][]byte, frames)}
	next := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2 * frames)
	dst.SetHandler(func(src string, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		defer wg.Done()
		i := next[src]
		next[src]++
		want := sent[src][i]
		if &payload[0] != &want[0] || len(payload) != len(want) {
			t.Errorf("frame %d from %s: handler did not receive the sender's buffer", i, src)
		}
		if payload[0] != byte(i) || payload[1] != byte(i>>8) {
			t.Errorf("frame %d from %s arrived out of order or altered (% x)", i, src, payload[:2])
		}
	})
	for _, s := range []*timedTransport{a, b} {
		for i := range sent[s.Local()] {
			sent[s.Local()][i] = []byte{byte(i), byte(i >> 8), s.Local()[0]}
		}
		go func(s *timedTransport) {
			for _, p := range sent[s.Local()] {
				if err := s.Send("dst", p); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()

	if got := a.frames.Load() + b.frames.Load(); got != 2*frames {
		t.Errorf("decorators counted %d frames, want %d", got, 2*frames)
	}
	if got := a.bytes.Load(); got != 3*frames {
		t.Errorf("decorator counted %d bytes from a, want %d", got, 3*frames)
	}
	agg := tr.aggregates()
	for _, kind := range []string{"send", "recv", "hop"} {
		if agg[kind].Count != 2*frames {
			t.Errorf("%d %s spans, want %d", agg[kind].Count, kind, 2*frames)
		}
	}
	if _, ok := any(a).(transport.Colocated); ok {
		t.Error("timedTransport must not claim co-location: wrapped nodes have to keep paying the wire")
	}
}

func TestJudge(t *testing.T) {
	lower := Metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	v := func(val, q1, q3 float64) Value { return Value{Value: val, Q1: q1, Q3: q3} }
	cases := []struct {
		name string
		m    Metric
		a, b Value
		want string
	}{
		{"tight and equal", lower, v(100, 99, 101), v(103, 102, 104), unchanged},
		{"tight and worse beyond the bound", lower, v(100, 99, 101), v(115, 114, 116), regressed},
		{"tight and better beyond the bound", lower, v(100, 99, 101), v(80, 79, 81), improved},
		{"higher is better: a drop regresses", higher, v(1000, 990, 1010), v(850, 840, 860), regressed},
		{"higher is better: a rise improves", higher, v(1000, 990, 1010), v(1200, 1190, 1210), improved},
		{"wide quartiles that overlap: unresolved, not unchanged", lower, v(100, 90, 115), v(104, 92, 118), unresolved},
		{"wide and worse but overlapping: unresolved", lower, v(100, 90, 115), v(114, 100, 130), unresolved},
		{"wide but disjoint and worse: regressed", lower, v(100, 90, 115), v(150, 135, 165), regressed},
		{"wide but disjoint and better: improved", lower, v(100, 90, 115), v(60, 50, 70), improved},
		{"no spread recorded", lower, v(100, 100, 100), v(100, 100, 100), unchanged},
		{"zero baseline", lower, v(0, 0, 0), v(5, 5, 5), unresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(tput float64) *Report {
		return &Report{Version: Version, Seed: 1, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seconds: 20,
			Workloads: []*WorkloadResult{{Name: "ring_1k", Correct: true, EndToEnd: map[string]Value{
				"throughput_ops_s": {Value: tput, Unit: "1/s", Q1: tput * 0.99, Q3: tput * 1.01},
			}}}}
	}
	var out bytes.Buffer
	if reg, unres := compareReports(mk(1000), mk(1005), &out); reg != 0 || unres != 0 {
		t.Errorf("equal reports: %d regressed, %d unresolved\n%s", reg, unres, out.String())
	}
	if reg, _ := compareReports(mk(1000), mk(500), &out); reg != 1 {
		t.Errorf("halved throughput: %d regressions, want 1", reg)
	}
	worse := mk(1000)
	worse.Workloads[0].OpsFailed = 3
	if reg, _ := compareReports(mk(1000), worse, &out); reg != 1 {
		t.Errorf("new failed ops: %d regressions, want 1", reg)
	}

	for _, mutate := range []func(*Report){
		func(r *Report) { r.NProc = 8 },
		func(r *Report) { r.GOMAXPROCS = 4 },
		func(r *Report) { r.GoVersion = "go1.22.0" },
		func(r *Report) { r.Seed = 2 },
		func(r *Report) { r.Version++ },
	} {
		other := mk(1000)
		mutate(other)
		if err := sameSetting(mk(1000), other); err == nil {
			t.Errorf("sameSetting accepted reports that differ: %+v", other)
		}
	}
	if err := sameSetting(mk(1000), mk(900)); err != nil {
		t.Errorf("sameSetting refused reports of one configuration: %v", err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2.25, 6.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; statistics.quantiles gives %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSlowness pins the yardstick arithmetic: each part's cost per rep over
// its nominal cost, weighed by the socket share.
func TestSlowness(t *testing.T) {
	body := yardBody{reps: 100, nominal: time.Microsecond}
	cases := []struct {
		name string
		g    gauge
		want float64
	}{
		{"nothing taken", gauge{}, 1},
		{"nominal host", gauge{socketShare: 0.4, nominalRep: body.nominal, transfers: 10, socket: 10 * nominalTransfer, reps: 100, body: 100 * time.Microsecond}, 1},
		{"socket path twice as slow", gauge{socketShare: 0.4, nominalRep: body.nominal, transfers: 10, socket: 20 * nominalTransfer, reps: 100, body: 100 * time.Microsecond}, 1.4},
		{"user code twice as slow", gauge{socketShare: 0.4, nominalRep: body.nominal, transfers: 10, socket: 10 * nominalTransfer, reps: 100, body: 200 * time.Microsecond}, 1.6},
		{"no socket part", gauge{socketShare: 0, nominalRep: body.nominal, reps: 200, body: 300 * time.Microsecond}, 1.5},
	}
	for _, c := range cases {
		if got := c.g.slowness(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: slowness %v, want %v", c.name, got, c.want)
		}
	}
}

// TestYardstickSlices runs real slices: both parts are timed and counted, and
// the token workloads' body allocates nothing, so the phase's allocation
// counts stay the workload's.
func TestYardstickSlices(t *testing.T) {
	y, err := newYardstick(fillBody(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	var g gauge
	allocs := testing.AllocsPerRun(3, func() { g.take(y) })
	if allocs > 2 { // AllocsPerRun's own closure bookkeeping
		t.Errorf("a yardstick slice allocates %.0f objects", allocs)
	}
	if g.transfers != 4*yardTransfers || g.reps != 4*y.body.reps || g.socket <= 0 || g.body <= 0 {
		t.Errorf("gauge after four slices: %+v", g)
	}
	if s := g.slowness(); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("slowness %v", s)
	}
}

// TestNormalisedSeries: a window measured on a host twice as slow as nominal
// reports twice its rate and half its durations; the wall values stay as the
// clock gave them and the reported value is the median over the windows.
func TestNormalisedSeries(t *testing.T) {
	host := func(slow float64) gauge {
		return gauge{nominalRep: time.Microsecond, reps: 1000, body: time.Duration(slow * 1000 * float64(time.Microsecond))}
	}
	p := phase{windows: []window{
		{ops: 1000, busy: time.Second, cpu: 2 * time.Second, host: host(1), p50: 1e6},
		{ops: 500, busy: time.Second, cpu: 2 * time.Second, host: host(2), p50: 2e6},
		{ops: 250, busy: time.Second, cpu: 2 * time.Second, host: host(4), p50: 4e6},
	}}
	rate := p.metric("1/s", window.rate, true)
	if rate.Value != 1000 || rate.Wall != 500 || rate.Q1 != 1000 || rate.Q3 != 1000 {
		t.Errorf("rate %+v, want 1000 normalised in every window, 500 on the clock", rate)
	}
	p50 := p.metric("ms", func(w window) float64 { return w.p50 / 1e6 }, false)
	if p50.Value != 1 || p50.Wall != 2 {
		t.Errorf("p50 %+v, want 1 ms normalised, 2 ms on the clock", p50)
	}
	if cpu := p.metric("us", window.cpuPerOp, false); cpu.Value != 2000 || cpu.Wall != 4000 {
		t.Errorf("cpu per op %+v, want 2000 us normalised, 4000 us on the clock", cpu)
	}
	if p.ops() != 1750 || p.cpu() != 6*time.Second {
		t.Errorf("phase totals: %d ops, %v cpu", p.ops(), p.cpu())
	}
}

func TestMeterDrain(t *testing.T) {
	m := newMeter(2)
	m.done(0, 100)
	m.done(1, 300)
	var h latHist
	m.drain(&h)
	if h.n != 2 || h.sum != 400 || m.ops.Load() != 2 {
		t.Errorf("drained n=%d sum=%d, ops=%d", h.n, h.sum, m.ops.Load())
	}
	m.done(1, 50)
	m.drain(nil)
	var again latHist
	m.drain(&again)
	if again.n != 0 {
		t.Errorf("%d samples survived a discarding drain", again.n)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for v := int64(1); v <= 1_000_000; v++ {
		h.record(v * 7) // 7 ns .. 7 ms, uniform
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * 7e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 1 << 20, 1<<40 - 1, 1 << 50} {
		i := histIndex(v)
		low, width := histBounds(i)
		if c := min(v, 1<<histMaxBits-1); c < low || c >= low+width {
			t.Errorf("value %d filed in bucket %d = [%d, %d)", v, i, low, low+width)
		}
	}
	var a, b latHist
	a.record(100)
	b.record(300)
	a.merge(&b)
	if a.n != 2 || a.sum != 400 {
		t.Errorf("merge: n=%d sum=%d", a.n, a.sum)
	}
}
