// Command dps-bench regenerates the paper's evaluation tables and figures
// on the simulated cluster. It is not a performance harness: every statement
// about speed comes from cmd/dps-perf.
//
// Usage:
//
//	dps-bench -exp figure6|table1|figure9|table2|figure15|rebalance|failover|all
//	          [-quick] [-stats] [-write EXPERIMENTS.md]
//	dps-bench -exp chaos [-seed N] [-duration D] [-quick]
//
// Without -write the regenerated tables print to stdout; with -write the
// output is additionally assembled into the experiments report file,
// recording paper-reference values next to the measured rows. -stats dumps
// the aggregated engine counters of each experiment in the text form /metrics
// serves, one line per Stats field.
//
// The rebalance experiment is not in the paper: it prices the placement
// layer's live thread migration by remapping a ring hop mid-benchmark. Nor
// is failover, which crashes a ring node mid-benchmark.
//
// The chaos experiment (also not in the paper, and not part of -exp all)
// soaks the ring and the Game of Life under seeded randomized fault
// schedules — delivery jitter, transient send errors, healing partitions,
// node crashes — and fails unless every call completes, transients cause
// zero failovers and every crash exactly one. -seed reproduces a failing
// schedule exactly; -duration stretches the soak (CI's nightly job runs
// it for minutes with a randomized seed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: figure6, table1, figure9, table2, figure15, rebalance, failover, chaos or all (all = every experiment except chaos, which binds wall-clock minutes and must be requested explicitly)")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	stats := flag.Bool("stats", false, "dump aggregated engine counters per experiment")
	write := flag.String("write", "", "also write the report to this file (e.g. EXPERIMENTS.md)")
	seed := flag.Int64("seed", 0, "chaos: fault-schedule seed (0 = default; a failure reproduces from its seed)")
	duration := flag.Duration("duration", 0, "chaos: soak span per workload (0 = default)")
	flag.Parse()

	opt := bench.Options{Quick: *quick, Seed: *seed, Duration: *duration}
	fns := map[string]func(bench.Options) (*bench.Report, error){
		"figure6":   bench.Figure6,
		"table1":    bench.Table1,
		"figure9":   bench.Figure9,
		"table2":    bench.Table2,
		"figure15":  bench.Figure15,
		"rebalance": bench.Rebalance,
		"failover":  bench.Failover,
		"chaos":     bench.Chaos,
	}
	var order []string
	if *exp == "all" {
		order = []string{"figure6", "table1", "figure9", "table2", "figure15", "rebalance", "failover"}
	} else {
		if _, ok := fns[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		order = []string{*exp}
	}

	var reports []*bench.Report
	for _, id := range order {
		fmt.Fprintf(os.Stderr, "running %s ...\n", id)
		start := time.Now()
		r, err := fns[id](opt)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, elapsed.Round(time.Millisecond))
		fmt.Println(r.String())
		if *stats && r.Stats != nil {
			fmt.Println(r.StatsText())
		}
		reports = append(reports, r)
	}

	if *write != "" {
		if err := os.WriteFile(*write, []byte(renderMarkdown(reports, opt)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *write, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *write)
	}
}

func renderMarkdown(reports []*bench.Report, opt bench.Options) string {
	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	sb.WriteString("Generated by `cmd/dps-bench`")
	if opt.Quick {
		sb.WriteString(" (quick mode — reduced problem sizes)")
	}
	sb.WriteString(" on the simulated cluster substrate (internal/simnet,\n")
	sb.WriteString("Gigabit-Ethernet-class model; see DESIGN.md for the substitution table).\n")
	sb.WriteString("Absolute numbers are not comparable to the paper's 2003 testbed — the\n")
	sb.WriteString("*shape* columns and the notes record what must (and does) hold.\n\n")
	titles := map[string]string{
		"figure6":   "Figure 6 — round-trip ring throughput, DPS vs raw transfers",
		"table1":    "Table 1 — execution-time reduction from overlapping (block matmul)",
		"figure9":   "Figure 9 — Game of Life speedup, simple vs improved flow graph",
		"table2":    "Table 2 — world-read service calls during the simulation",
		"figure15":  "Figure 15 — LU factorization speedup, pipelined vs non-pipelined",
		"rebalance": "Rebalance — live thread remap of a ring hop mid-benchmark (not in paper)",
		"failover":  "Failover — ring node crash mid-benchmark, checkpoint restore + replay (not in paper)",
		"chaos":     "Chaos — seeded fault schedules over live workloads (not in paper)",
	}
	for _, r := range reports {
		sb.WriteString("## " + titles[r.ID] + "\n\n```\n")
		sb.WriteString(r.Table.String())
		sb.WriteString("```\n\n")
		for _, n := range r.Notes {
			sb.WriteString("- " + n + "\n")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
