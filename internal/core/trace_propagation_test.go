package core_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// These tests pin the tracing tentpole's end-to-end promise: a sampled
// call's spans, collected from every node, reconstruct one connected
// timeline — including across the two hard paths, a mid-call live Remap
// (PR 4; TestTraceAcrossRemap, in migrate_internal_test.go, where it can
// force the remap to land mid-stream) and a node crash with replay from
// retained logs (PR 5). The last
// test pins the other half of the contract: with sampling effectively off,
// the trace machinery adds zero allocations to the call path.

// spansByTrace groups a flat span dump by trace id.
func spansByTrace(spans []trace.Span) map[uint64][]trace.Span {
	out := make(map[uint64][]trace.Span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// kindSet reports which span kinds appear, and the nodes recording each.
func kindSet(spans []trace.Span) (kinds map[string]bool, nodes map[string]bool) {
	kinds = make(map[string]bool)
	nodes = make(map[string]bool)
	for _, s := range spans {
		kinds[s.Kind] = true
		nodes[s.Node] = true
	}
	return kinds, nodes
}

// TestSampledCallTimeline: with TraceSample=1 a cross-node call leaves a
// single trace whose spans cover the whole token journey — admission (post),
// dispatch wait (queue), handler runs (execute), cross-node hops (wire) and
// result delivery — attributed to both nodes involved.
func TestSampledCallTimeline(t *testing.T) {
	app := newLocalApp(t, core.Config{TraceSample: 1, ForceSerialize: true}, "node0", "node1")
	g := buildUppercase(t, app, "traced-upper", "node1")

	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "trace me"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "TRACE ME" {
		t.Fatalf("got %q", got)
	}

	byTrace := spansByTrace(app.TraceSpans(0))
	if len(byTrace) != 1 {
		t.Fatalf("one sampled call left %d traces, want 1", len(byTrace))
	}
	for id, spans := range byTrace {
		if id == 0 {
			t.Fatal("spans recorded under trace id 0")
		}
		kinds, nodes := kindSet(spans)
		for _, want := range []string{"post", "queue", "execute", "wire", "result"} {
			if !kinds[want] {
				t.Errorf("timeline missing %q span; got kinds %v", want, kinds)
			}
		}
		if !nodes["node0"] || !nodes["node1"] {
			t.Errorf("timeline should span both nodes, got %v", nodes)
		}
		// TraceSpans returns a sorted timeline: starts must be non-decreasing.
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].Start {
				t.Fatalf("timeline out of order at %d: %+v after %+v", i, spans[i], spans[i-1])
			}
		}
	}
}

// TestTraceAcrossFailover crashes a worker node while sampled calls stream:
// the recovery replay must show up inside the affected calls' traces as
// replay spans connected (same trace id) to ordinary spans recorded by
// other, surviving nodes — one timeline across the crash.
func TestTraceAcrossFailover(t *testing.T) {
	cfg := core.Config{Window: 4, Checkpoint: 2 * time.Millisecond, TraceSample: 1}
	h := newFTHarness(t, cfg, "w1*2 w2*2", "m", "w1", "w2")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		h.net.Crash("w2")
	}()
	const rounds, perCall = 40, 12
	for r := 0; r < rounds; r++ {
		h.call(t, r*1000, perCall)
	}
	wg.Wait()
	if err := h.app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}
	if s := h.app.Stats(); s.FailoversCompleted != 1 {
		t.Fatalf("FailoversCompleted = %d, want 1", s.FailoversCompleted)
	}

	connected := 0
	for id, spans := range spansByTrace(h.app.TraceSpans(0)) {
		if id == 0 {
			t.Fatal("spans recorded under trace id 0")
		}
		var replayNodes, otherNodes map[string]bool
		replayNodes = make(map[string]bool)
		otherNodes = make(map[string]bool)
		for _, s := range spans {
			if s.Kind == "replay" {
				replayNodes[s.Node] = true
			} else {
				otherNodes[s.Node] = true
			}
		}
		if len(replayNodes) == 0 {
			continue
		}
		// A replayed call's timeline must still connect to live execution
		// somewhere else: spans from a node other than the replayer.
		for n := range otherNodes {
			if !replayNodes[n] {
				connected++
				break
			}
		}
	}
	if connected == 0 {
		t.Fatal("no trace connects a replay span to live spans on another node")
	}
	t.Logf("%d traces reconstruct a timeline across the crash", connected)
}

// TestUnsampledCallAddsNoAllocations pins the zero-allocation promise of the
// unsampled hot path: running the engine with sampling configured but (for
// these calls) not taken allocates exactly as much as running it with
// tracing off entirely. TraceSample=1e-9 makes every admission roll the
// sampling dice and lose, which is precisely the hot path under test.
//
// Two things other than tracing move a call's allocation count, so the
// comparison is of unrounded means over unsampledRounds fresh pairs of
// applications, and the median difference must stay under half an
// allocation (anything tracing adds is at least one per call):
//   - a FIFO ticket allocates (a channel) only when its Wait really has to
//     block behind an operation that reacquired the thread, so how an
//     application's goroutines interleave can add a fraction of an
//     allocation to its mean (52.0 per call when nothing blocks);
//   - under the race detector sync.Pool.Put drops one object in four at
//     random, which makes the mean fractional and testing.AllocsPerRun's
//     truncation of it differ by one between two identical applications in
//     a third of the runs.
func TestUnsampledCallAddsNoAllocations(t *testing.T) {
	const (
		unsampledRounds = 5
		callsPerRound   = 400
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	call := func(g *core.Flowgraph) {
		if _, err := callWithin(g, "node0", &StringToken{Str: "abcdefgh"}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	allocsPerCall := func(g *core.Flowgraph) float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < callsPerRound; i++ {
			call(g)
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-before) / callsPerRound
	}
	var diffs []float64
	for r := 0; r < unsampledRounds; r++ {
		appOff := newLocalApp(t, core.Config{}, "node0")
		gOff := buildUppercase(t, appOff, fmt.Sprintf("alloc-off-%d", r), "node0")
		appOn := newLocalApp(t, core.Config{TraceSample: 1e-9}, "node0")
		gOn := buildUppercase(t, appOn, fmt.Sprintf("alloc-on-%d", r), "node0")
		for i := 0; i < 32; i++ { // warm pools, links and the scheduler
			call(gOff)
			call(gOn)
		}
		off, on := allocsPerCall(gOff), allocsPerCall(gOn)
		t.Logf("allocs/call: tracing-off=%.2f unsampled=%.2f", off, on)
		diffs = append(diffs, on-off)
		if spans := appOn.TraceSpans(0); len(spans) != 0 {
			t.Errorf("unsampled calls recorded %d spans", len(spans))
		}
	}
	sort.Float64s(diffs)
	if median := diffs[unsampledRounds/2]; median > 0.5 {
		t.Errorf("unsampled call allocates %.2f more than with tracing off (median of %.2f)", median, diffs)
	}
}
