package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// Report is what one invocation writes with -json and what -compare reads.
type Report struct {
	Version    int     `json:"benchmark_version"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`

	Workloads []*WorkloadResult `json:"workloads"`
}

// driverLine is the one-line JSON object the repository's benchmark driver
// reads from the last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Main is cmd/dps-perf. It returns the process exit code: 0 when every
// workload ran, verified its outputs and lost no op; 1 otherwise; 2 for a
// usage error.
func Main(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dps-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print the driver's one-line JSON result last")
		seed     = fs.Int64("seed", 1, "seed for payload bytes, fan widths and the Life world")
		seconds  = fs.Float64("seconds", 20, "length of the measured (untraced) phase")
		traceSel = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (traced run + probes); -1: both")
		jsonOut  = fs.String("json", "", "write the full report to this file")
		traceOut = fs.String("trace-out", "", "write the traced runs' spans and aggregates to this file")
		quick    = fs.Bool("quick", false, "smoke run: 0.3 s phases, one set-up, tiny probes")
		list     = fs.Bool("list", false, "print every workload and metric with unit, direction and bound, and exit")
		compare  = fs.Bool("compare", false, "compare two -json reports: dps-perf -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dps-perf: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *traceSel < -1 || *traceSel > 1 {
		fmt.Fprintln(stderr, "dps-perf: bad arguments; see -help")
		return 2
	}

	defs := workloadDefs
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "dps-perf: unknown workload %q; see -list\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}

	// Pinned so that a run means the same on a bigger host: load comes from
	// at most this many generator goroutines.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	measured := time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{
		seed: *seed, procs: procs,
		setups: 9, measured: measured, traced: 6 * time.Second, probeFor: 40 * time.Millisecond,
		segment: 150 * time.Millisecond, window: time.Second,
		endToEnd: *traceSel != 1, layers: *traceSel != 0,
	}
	if *workload != "" && *traceSel == 1 {
		// The driver's per-layer run: --seconds covers the untraced
		// reference phase (for trace.overhead_ratio) and the traced run.
		cfg.setups, cfg.measured, cfg.traced = 1, measured/2, measured/2
	}
	if *quick {
		cfg.setups, cfg.measured, cfg.traced, cfg.probeFor = 1, 300*time.Millisecond, 300*time.Millisecond, 2*time.Millisecond
		cfg.segment, cfg.window = 50*time.Millisecond, 100*time.Millisecond
	}
	// Generous: set-ups, both phases, draining calls at their deadlines,
	// probes. It exists to turn a hang into a diagnosis, not to time anything.
	cfg.watchdog = cfg.measured + cfg.traced + 90*time.Second
	if *traceOut != "" {
		tw, err := newTraceWriter(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "dps-perf: %v\n", err)
			return 1
		}
		cfg.traceOut = tw
		defer func() {
			if err := tw.close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "dps-perf: trace file: %v\n", err)
				code = 1
			}
		}()
	}

	rep := &Report{Version: Version, Seed: *seed, NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), Seconds: cfg.measured.Seconds(), Quick: *quick}
	ok := true
	for _, def := range defs {
		res, err := runWorkload(def, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "dps-perf: %s: %v\n", def.name, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(stdout, res)
		if !res.Correct || res.OpsFailed != 0 {
			fmt.Fprintf(stderr, "dps-perf: %s: correct=%v ops_failed=%d: %s\n", def.name, res.Correct, res.OpsFailed, res.Error)
			ok = false
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "dps-perf: %v\n", err)
			return 1
		}
	}
	if *workload != "" {
		res := rep.Workloads[0]
		line := driverLine{Correct: res.Correct, Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: make(map[string]driverValue)}
		for _, set := range []map[string]Value{res.EndToEnd, res.PerLayer} {
			for name, v := range set {
				line.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "dps-perf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printList(w io.Writer) {
	fmt.Fprintf(w, "dps-perf benchmark version %d\n\nworkloads (closed loop):\n", Version)
	for _, wl := range workloadDefs {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
		if wl.ungated != "" {
			fmt.Fprintf(w, "  %-14s not in BENCHMARK.json: %s\n", "", wl.ungated)
		}
	}
	fmt.Fprintf(w, "\nend-to-end metrics (tracing off):\n")
	for _, m := range EndToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-7s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintf(w, "\nper-layer metrics (probes, traced run) and what each should move:\n")
	for _, m := range PerLayer {
		fmt.Fprintf(w, "  %-28s %-6s %-7s %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

// printWorkload prints every metric by name with its unit, in declaration
// order; windowed metrics show their quartiles and spread.
func printWorkload(w io.Writer, r *WorkloadResult) {
	fmt.Fprintf(w, "== %s: correct=%v ops_attempted=%d ops_failed=%d latency_samples=%d windows=%d host_slowness=%.3f\n",
		r.Name, r.Correct, r.OpsAttempted, r.OpsFailed, r.LatencySamples, r.Windows, r.HostSlowness)
	for _, m := range EndToEnd {
		v, ok := r.EndToEnd[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if v.Q1 != v.Q3 && v.Value != 0 {
			fmt.Fprintf(w, "  q1 %.4f q3 %.4f spread %.1f%%  on the clock %.4f", v.Q1, v.Q3, 100*math.Abs((v.Q3-v.Q1)/v.Value), v.Wall)
		}
		fmt.Fprintln(w)
	}
	for _, m := range PerLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// verdicts of -compare, per (workload, end-to-end metric).
const (
	unchanged  = "unchanged"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one metric of the baseline a with the candidate b. delta is
// the change as a share of the baseline, positive when worse. When either
// side's own quartile distance is wider than the bound the two cannot be told
// apart at that resolution, so the verdict is unresolved — unless the
// quartile ranges do not overlap at all, which settles the direction.
func judge(m Metric, a, b Value) (verdict string, delta float64) {
	if a.Value == 0 {
		return unresolved, 0
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	delta = sign * (b.Value - a.Value) / math.Abs(a.Value)
	if wide := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Value); wide > m.Bound {
		switch {
		case sign*(b.Q1-a.Q3) > 0 && delta > m.Bound:
			return regressed, delta
		case sign*(a.Q1-b.Q3) > 0:
			return improved, delta
		}
		return unresolved, delta
	}
	switch {
	case delta > m.Bound:
		return regressed, delta
	case delta < -m.Bound:
		return improved, delta
	}
	return unchanged, delta
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// sameSetting refuses pairs of reports whose numbers do not mean the same.
func sameSetting(a, b *Report) error {
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"benchmark version", a.Version, b.Version},
		{"nproc", a.NProc, b.NProc},
		{"GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS},
		{"Go version", a.GoVersion, b.GoVersion},
		{"seed", a.Seed, b.Seed},
		{"measured seconds", a.Seconds, b.Seconds},
	} {
		if c.a != c.b {
			return fmt.Errorf("reports differ in %s (%v vs %v); refusing to compare", c.what, c.a, c.b)
		}
	}
	return nil
}

// compareReports prints one row per (workload, end-to-end metric) and returns
// how many regressed and how many are unresolved.
func compareReports(a, b *Report, w io.Writer) (regressions, unresolveds int) {
	byName := make(map[string]*WorkloadResult)
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse%", "bound%", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			continue
		}
		if rb.OpsFailed > ra.OpsFailed {
			fmt.Fprintf(w, "%-14s %-20s %14d %14d %8s %6s  %s\n", ra.Name, "ops_failed", ra.OpsFailed, rb.OpsFailed, "", "", regressed)
			regressions++
		}
		for _, m := range EndToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			verdict, delta := judge(m, va, vb)
			switch verdict {
			case regressed:
				regressions++
			case unresolved:
				unresolveds++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.1f %6.0f  %s\n", ra.Name, m.Name, va.Value, vb.Value, 100*delta, 100*m.Bound, verdict)
		}
	}
	return
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	var b *Report
	if err == nil {
		b, err = readReport(pathB)
	}
	if err == nil {
		err = sameSetting(a, b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dps-perf: %v\n", err)
		return 2
	}
	regressions, unresolveds := compareReports(a, b, stdout)
	fmt.Fprintf(stdout, "%d regressed, %d unresolved\n", regressions, unresolveds)
	if regressions > 0 {
		return 1
	}
	return 0
}
