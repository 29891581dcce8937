// Package repro is a Go reproduction of "DPS – Dynamic Parallel Schedules"
// (Gerlach & Hersch, HIPS/IPDPS 2003): a framework for parallel
// applications on distributed-memory clusters built from compositional
// split-compute-merge flow graphs.
//
// The supported API is the repro/dps package: typed stages and graphs
// (Stage[In, Out], Chain/Then, Graph[In, Out].Call(ctx, in) (Out, error)),
// context-aware calls whose cancellation releases flow-control state,
// live thread remapping (Collection.Remap migrates threads between nodes
// mid-execution, with state shipment and token forwarding), fault
// tolerance (WithCheckpoint enables checkpointed threads, token retention
// and replay; a node declared dead — by a failing send, a kernel heartbeat,
// or App.FailNode — has its threads restored on the survivors with
// exactly-once semantics, observable via Collection.OnRecover), and
// functional options (NewLocal / NewSim / Connect with WithWindow,
// WithForceSerialize, WithCheckpoint, WithRegistry, ...). It is a
// zero-allocation façade over the engine in internal/core, which layers
// the scheduler (internal/core/sched: per-thread-instance FIFO queues, each
// drained by a warm worker), flow control (internal/core/flowctl: one credit
// window per split group, load-balancing credits), placement
// (internal/core/place: epoch-versioned thread→node tables and the
// live-remap protocol) and failure recovery (internal/core/ft: checkpoint
// records, sender retention logs, duplicate filters, the failover
// coordinator) under the DPS model, with one package per substrate
// (serialization, simulated cluster network with Crash/Partition fault
// injection, transports, kernel runtime, dense linear algebra, Game of
// Life). Only repro/dps imports the engine; CI enforces the boundary —
// along with the lock and buffer-ownership disciplines — through the
// project's own linter, cmd/dps-vet (rules and golden fixtures in
// internal/analysis).
//
// Executables are under cmd/, runnable examples under examples/, and the
// root bench_test.go regenerates every table and figure of the paper's
// evaluation. See README.md for the layout and the core→dps migration
// table, DESIGN.md for the engine layering and testbed substitutions, and
// EXPERIMENTS.md (generated by cmd/dps-bench -write) for the measured
// tables. Those figures run on the simulated cluster and reproduce shapes;
// how fast the engine is on real sockets is measured only by cmd/dps-perf
// (declared in BENCHMARK.json, documented in internal/perf/README.md).
package repro
