package core_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestChainedRemapFenceQuota is the direct regression test for the
// fence-quota invariant of the placement layer (migrate.go): an instance
// that just arrived on a node may only migrate onward once every fence
// pair of the inbound migration has terminally completed there — otherwise
// a chained remap lets fresh traffic overtake stragglers still in flight
// through the relay chain. The three-hop A→B→C→A chain under continuous
// sequenced traffic is exactly the shape that breaks when the quota is
// ignored; previously it was exercised only indirectly via the mid-run
// remap churn test.
func TestChainedRemapFenceQuota(t *testing.T) {
	// Simulated network: migrations race genuinely in-flight tokens.
	net := simnet.New(simnet.Config{Latency: 150 * time.Microsecond, PerMessage: 15 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{Window: 8}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	g, acc := buildSeqGraph(t, app, "chain", "A", "A")

	const tokens = 4096
	done := make(chan core.CallResult, 1)
	go func() {
		out, err := g.Call(context.Background(), &MigOrder{N: tokens})
		done <- core.CallResult{Value: out, Err: err}
	}()

	// Three-hop chain, repeated: A→B→C→A with no pause between hops, so
	// each onward migration begins while the previous hop's fences and
	// stragglers are still settling.
	var hops atomic.Int64
	chain := []string{"B", "C", "A"}
	for round := 0; round < 3; round++ {
		for _, to := range chain {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := acc.RemapThread(ctx, 0, to); err != nil {
				cancel()
				t.Fatalf("round %d: remap to %s: %v", round, to, err)
			}
			cancel()
			hops.Add(1)
		}
	}

	res := <-done
	if res.Err != nil {
		t.Fatalf("call failed: %v", res.Err)
	}
	if got := res.Value.(*MigDone).N; got != tokens {
		t.Fatalf("merge collected %d of %d tokens", got, tokens)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("app failed: %v", err)
	}

	// The state travelled the whole chain and saw every token in posting
	// order: any overtaking straggler shows up as a violation.
	st := readState(t, app, acc)
	if st.Violations != 0 {
		t.Fatalf("%d FIFO violations across %d chained remaps", st.Violations, hops.Load())
	}
	if st.NextSeq != tokens || st.Sum != int64(tokens-1)*tokens/2 {
		t.Fatalf("state after chain = %+v, want NextSeq=%d Sum=%d", st, tokens, int64(tokens-1)*tokens/2)
	}
	if got, _ := acc.NodeOf(0); got != "A" {
		t.Fatalf("thread ended on %q, want A", got)
	}
	if s := app.Stats(); s.MigrationsCompleted != hops.Load() {
		t.Fatalf("MigrationsCompleted = %d, want %d", s.MigrationsCompleted, hops.Load())
	}
}
