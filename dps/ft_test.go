package dps_test

import (
	"context"
	"testing"
	"time"

	"repro/dps"
)

type ftCount struct {
	Seen int
}

var _ = dps.Register[ftCount]()

// TestWithCheckpointFailNode exercises the fault-tolerance façade end to
// end on an in-process fabric: WithCheckpoint enables the layer, FailNode
// recovers a node's stateful threads onto the survivors, OnRecover
// observes the move, and a post-failover call runs against the restored
// state with exactly-once semantics.
func TestWithCheckpointFailNode(t *testing.T) {
	app := newApp(t,
		dps.WithNodes("a", "b"),
		dps.WithCheckpoint(5*time.Millisecond),
		dps.WithWindow(4),
	)
	main := dps.MustCollection[struct{}](app, "ftf-main")
	if err := main.Map("a"); err != nil {
		t.Fatal(err)
	}
	work := dps.MustCollection[ftCount](app, "ftf-work")
	if err := work.Map("b"); err != nil {
		t.Fatal(err)
	}
	split := dps.Split("ftf-split", main, dps.MainRoute(),
		func(c *dps.Ctx, in *cntTok, post func(*cntTok)) {
			for i := 0; i < in.N; i++ {
				post(&cntTok{N: i})
			}
		})
	leaf := dps.Leaf("ftf-leaf", work, dps.RoundRobin(),
		func(c *dps.Ctx, in *cntTok) *cntTok {
			st := dps.StateOf[ftCount](c)
			st.Seen++
			return &cntTok{N: st.Seen}
		})
	merge := dps.Merge("ftf-merge", main, dps.MainRoute(),
		func(c *dps.Ctx, first *cntTok, next func() (*cntTok, bool)) *cntTok {
			max := first.N
			for in, ok := first, true; ok; in, ok = next() {
				if in.N > max {
					max = in.N
				}
			}
			return &cntTok{N: max}
		})
	g, err := dps.Build(app, "ftf", dps.Then(dps.Then(dps.Chain(split), leaf), merge))
	if err != nil {
		t.Fatal(err)
	}

	out, err := g.Call(context.Background(), &cntTok{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 10 {
		t.Fatalf("first call saw max %d, want 10", out.N)
	}

	moved := make(chan string, 1)
	work.OnRecover(func(thread int, from, to string) { moved <- from + "->" + to })
	if err := app.FailNode("b"); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	select {
	case mv := <-moved:
		if mv != "b->a" {
			t.Fatalf("OnRecover saw %q, want b->a", mv)
		}
	default:
		t.Fatal("OnRecover did not fire")
	}

	// The restored state continues the exactly-once counter: the second
	// call's max must be 20, not 10 (state lost) or >20 (re-applied).
	out, err = g.Call(context.Background(), &cntTok{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 20 {
		t.Fatalf("post-failover call saw max %d, want 20 (checkpointed state continued)", out.N)
	}
	if s := app.Stats(); s.FailoversCompleted != 1 {
		t.Fatalf("FailoversCompleted = %d", s.FailoversCompleted)
	}
	if err := app.FailNode("a"); err == nil {
		t.Fatal("failing the master must be rejected")
	}
}

func TestFTOptionErrors(t *testing.T) {
	if _, err := dps.NewLocal(dps.WithCheckpoint(-time.Second)); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
	app := newApp(t, dps.WithNodes("a", "b"))
	if err := app.FailNode("b"); err == nil {
		t.Fatal("FailNode without WithCheckpoint accepted")
	}
}
