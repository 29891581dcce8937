package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/life"
	"repro/internal/parlife"
	"repro/internal/ringbench"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Spec configures one chaos run.
type Spec struct {
	// Seed derives the fault schedule and the network's jitter draws.
	Seed int64
	// Span is how long the workload keeps issuing calls while faults land.
	// Keep it at a second or more when Crashes > 0, so the schedule's
	// faults and each crash's recovery fit inside the run.
	Span time.Duration
	// Crashes is the number of node crashes to schedule (capped by the
	// workload's victim count); zero gives a transient-only schedule that
	// must end with zero failovers.
	Crashes int
}

// Result is one completed chaos run with its invariants already checked.
type Result struct {
	Workload  string
	Schedule  Schedule
	Calls     int   // completed graph calls (ring) or iterations (life)
	Failovers int64 // must equal Schedule.Crashes()
	Retries   int64 // send attempts the SimNodes repeated after a transient fault
	Injected  int64 // injected transient send errors actually consumed
	// Recovery holds the crash-to-failover-completed latency, one sample
	// per crash (detection is passive: a crash is seen at the first send
	// to it), as a mergeable percentile histogram.
	Recovery trace.Hist
	Stats    *core.Stats
	Elapsed  time.Duration
}

// injector applies a schedule to a live network and watches each crash
// through to its completed failover.
type injector struct {
	sched    Schedule
	net      *simnet.Network
	app      *core.App
	recovery trace.Hist
	err      error
	done     chan struct{}
}

func startInjector(sched Schedule, net *simnet.Network, app *core.App) *injector {
	inj := &injector{sched: sched, net: net, app: app, done: make(chan struct{})}
	go inj.run()
	return inj
}

func (inj *injector) run() {
	defer close(inj.done)
	start := time.Now()
	failovers := inj.app.Stats().FailoversCompleted
	for _, f := range inj.sched.Faults {
		time.Sleep(time.Until(start.Add(f.At)))
		switch f.Kind {
		case Crash:
			if !inj.net.Crash(f.A) {
				inj.err = fmt.Errorf("chaos: crash of %s failed (already gone?)", f.A)
				return
			}
			crashAt := time.Now()
			replayedBefore := inj.app.Stats().TokensReplayed
			// Recovery is complete when the failover counter moves. The
			// workload keeps calling, so its own traffic drives passive
			// detection; 1ms polling bounds the latency resolution.
			deadline := crashAt.Add(30 * time.Second)
			for {
				if n := inj.app.Stats().FailoversCompleted; n > failovers {
					failovers = n
					inj.recovery.Add(time.Since(crashAt))
					break
				}
				if err := inj.app.Err(); err != nil {
					inj.err = fmt.Errorf("chaos: application died after crash of %s: %w", f.A, err)
					return
				}
				if time.Now().After(deadline) {
					inj.err = fmt.Errorf("chaos: crash of %s never recovered", f.A)
					return
				}
				time.Sleep(time.Millisecond)
			}
			if err := inj.checkReplayTraced(replayedBefore); err != nil {
				inj.err = err
				return
			}
		case Partition:
			inj.net.Partition(f.A, f.B)
		case Heal:
			inj.net.Heal(f.A, f.B)
		case Jitter:
			inj.net.SetJitter(f.A, f.B, f.Max)
		case SendErrors:
			inj.net.FailNextSends(f.A, f.B, f.Count)
		}
	}
}

// checkReplayTraced is the observability invariant of a recovered crash:
// every chaos call is sampled, so whenever the recovery actually replayed
// retained tokens, some trace must show a replay span connected (same trace
// id) to ordinary spans recorded on a different node — the crashed call's
// timeline reconstructs across the failover rather than going dark. The
// span rings are lock-free snapshots and replay spans land on the resending
// node as recovery proceeds, so the check polls briefly.
func (inj *injector) checkReplayTraced(replayedBefore int64) error {
	if inj.app.Stats().TokensReplayed == replayedBefore {
		return nil // nothing was in the retention window; no spans to demand
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, span := range inj.app.TraceSpans(0) {
			if span.Kind != "replay" {
				continue
			}
			for _, other := range inj.app.TraceSpans(span.Trace) {
				if other.Kind != "replay" && other.Node != span.Node {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: recovery replayed tokens but no trace connects a replay span to live spans on another node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wait joins the injector; it returns once every fault has been applied
// and every crash has recovered (or failed to).
func (inj *injector) wait() error {
	<-inj.done
	return inj.err
}

// checkInvariants enforces the recovery contract a finished run must
// satisfy: exactly one failover per scheduled crash — transient faults
// never escalate, real crashes never go unhandled.
func checkInvariants(r *Result) error {
	if want := int64(r.Schedule.Crashes()); r.Failovers != want {
		if want == 0 {
			return fmt.Errorf("chaos(%s): transient-only schedule caused %d failovers\n%s",
				r.Workload, r.Failovers, r.Schedule)
		}
		return fmt.Errorf("chaos(%s): %d failovers for %d crashes\n%s",
			r.Workload, r.Failovers, want, r.Schedule)
	}
	return nil
}

// ringCfg is the simulated cluster the chaos workloads run on.
var ringCfg = simnet.Config{Latency: 100 * time.Microsecond, PerMessage: 10 * time.Microsecond}

// RunRing soaks the Figure 6 ring (4 nodes, master ring0) under the
// randomized schedule derived from spec: repeated full-ring calls for
// spec.Span, each call's merge total checked for exactly-once delivery.
func RunRing(spec Spec) (*Result, error) {
	const (
		ringNodes     = 4
		blocksPerCall = 64
		blockSize     = 1024
	)
	nodes := make([]string, ringNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("ring%d", i)
	}
	sched := Random(spec.Seed, nodes, spec.Span, spec.Crashes)
	appCfg := core.Config{Window: 64, Checkpoint: 2 * time.Millisecond, TraceSample: 1}

	var (
		inj      *injector
		injErr   error
		final    *core.Stats
		injected int64
		retries  int64
	)
	hook := func(net *simnet.Network, app *core.App, trs []transport.Transport) func() {
		net.SeedFaults(spec.Seed)
		inj = startInjector(sched, net, app)
		return func() {
			injErr = inj.wait()
			final = app.Stats()
			injected = net.InjectedSendErrors()
			retries = transport.SimRetries(trs)
		}
	}
	res, calls, err := ringbench.RunDPSChaos(ringCfg, ringNodes, blocksPerCall, blockSize, appCfg, spec.Span, hook)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, sched)
	}
	if injErr != nil {
		return nil, injErr
	}
	out := &Result{
		Workload:  "ring",
		Schedule:  sched,
		Calls:     calls,
		Failovers: final.FailoversCompleted,
		Retries:   retries,
		Injected:  injected,
		Recovery:  inj.recovery,
		Stats:     final,
		Elapsed:   res.Elapsed,
	}
	if err := checkInvariants(out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunParlife soaks the §5 Game of Life under the randomized schedule
// derived from spec: improved-graph iterations for spec.Span on 3 nodes
// (master n0, band workers striped over n1/n2), then replays the same
// number of iterations on an undisturbed cluster and requires the final
// worlds to be byte-identical — the end-to-end exactly-once check.
func RunParlife(spec Spec) (*Result, error) {
	const (
		width, height = 48, 40
		workers       = 4
	)
	nodes := []string{"n0", "n1", "n2"}
	workerNodes := []string{"n1", "n2", "n1", "n2"}
	sched := Random(spec.Seed, nodes, spec.Span, spec.Crashes)
	appCfg := core.Config{Window: 16, Checkpoint: 2 * time.Millisecond, TraceSample: 1}

	seedWorld := life.NewWorld(width, height)
	wrng := rand.New(rand.NewSource(spec.Seed))
	for i := range seedWorld.Cells {
		if wrng.Intn(3) == 0 {
			seedWorld.Cells[i] = 1
		}
	}

	// run iterates the world on a fresh cluster, under sched for spec.Span
	// or, with no schedule, for iters iterations.
	run := func(sched *Schedule, iters int) (*life.World, *Result, error) {
		net := simnet.New(ringCfg)
		defer net.Close()
		trs, err := transport.SimNodes(net, nodes...)
		if err != nil {
			return nil, nil, err
		}
		app, err := core.NewAppOn(appCfg, trs...)
		if err != nil {
			return nil, nil, err
		}
		defer app.Close()
		sim, err := parlife.New(app, width, height, parlife.Options{
			Name: "chaos", Workers: workers, WorkerNodes: workerNodes,
		})
		if err != nil {
			return nil, nil, err
		}
		w := life.NewWorld(width, height)
		copy(w.Cells, seedWorld.Cells)
		if err := sim.Load(w); err != nil {
			return nil, nil, err
		}
		var inj *injector
		if sched != nil {
			net.SeedFaults(sched.Seed)
			inj = startInjector(*sched, net, app)
		}
		sw := trace.StartStopwatch()
		if sched != nil {
			// Disturbed run: iterate for the span, however far that gets.
			for sim.Iter() == 0 || sw.Elapsed() < spec.Span {
				if err := sim.Step(true); err != nil {
					return nil, nil, fmt.Errorf("step %d: %w", sim.Iter()+1, err)
				}
			}
		} else if err := sim.StepN(iters, true); err != nil {
			return nil, nil, err
		}
		res := &Result{Workload: "life", Calls: sim.Iter(), Elapsed: sw.Elapsed()}
		out, err := sim.Gather()
		if err != nil {
			return nil, nil, fmt.Errorf("gather: %w", err)
		}
		if err := app.Err(); err != nil {
			return nil, nil, err
		}
		if inj != nil {
			if err := inj.wait(); err != nil {
				return nil, nil, err
			}
			res.Schedule, res.Recovery = *sched, inj.recovery
		}
		res.Stats = app.Stats()
		res.Failovers = res.Stats.FailoversCompleted
		res.Retries = transport.SimRetries(trs)
		res.Injected = net.InjectedSendErrors()
		return out, res, nil
	}

	disturbed, out, err := run(&sched, 0)
	if err != nil {
		return nil, fmt.Errorf("chaos(life): %w\n%s", err, sched)
	}
	clean, _, err := run(nil, out.Calls)
	if err != nil {
		return nil, fmt.Errorf("chaos(life): clean replay: %w", err)
	}
	if !bytes.Equal(clean.Cells, disturbed.Cells) {
		return nil, fmt.Errorf("chaos(life): world after %d iterations under faults differs from undisturbed run\n%s", out.Calls, sched)
	}
	if err := checkInvariants(out); err != nil {
		return nil, err
	}
	return out, nil
}
