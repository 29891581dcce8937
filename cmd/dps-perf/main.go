// Command dps-perf is the repository's benchmark: five workloads over real
// loopback TCP, end-to-end metrics with tracing off, and a per-layer budget
// from layer probes and a traced run. See internal/perf/README.md.
//
//	go run ./cmd/dps-perf -seed 1 -json out.json      # every workload, ~3 min
//	go run ./cmd/dps-perf -list                       # workloads and metrics
//	go run ./cmd/dps-perf -compare old.json new.json  # judge two reports
//	go run ./cmd/dps-perf -workload ring_1k -seed 7 -seconds 20 -trace 0
package main

import (
	"os"

	"repro/internal/perf"
)

func main() { os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr)) }
