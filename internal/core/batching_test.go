package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestUppercaseBatched runs the tutorial graph with wire batching on over
// serialized local lanes (ForceSerialize disables the colocated fast path,
// so every inter-node token really rides a batch frame).
func TestUppercaseBatched(t *testing.T) {
	app := newLocalApp(t, core.Config{Batch: true, ForceSerialize: true}, "node0", "node1", "node2")
	g := buildUppercase(t, app, "upper", "node1*2 node2")
	in := "batched wire path throughput"
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: in}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != strings.ToUpper(in) {
		t.Fatalf("got %q", got)
	}
	st := app.Stats()
	if st.FramesBatched == 0 {
		t.Fatal("no batch frames flushed despite Config.Batch")
	}
	if st.TokensPerFrame < 1 {
		t.Fatalf("TokensPerFrame = %d", st.TokensPerFrame)
	}
}

// TestUppercaseBatchedFT stacks the wire-path features: batching, and
// fault-tolerance sequence stamps folded into the batch header.
func TestUppercaseBatchedFT(t *testing.T) {
	app := newLocalApp(t, core.Config{
		Batch:          true,
		ForceSerialize: true,
		Checkpoint:     5 * time.Millisecond,
	}, "node0", "node1")
	g := buildUppercase(t, app, "upper", "node1")
	in := "batched and sequenced"
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: in}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != strings.ToUpper(in) {
		t.Fatalf("got %q", got)
	}
	st := app.Stats()
	if st.FramesBatched == 0 {
		t.Fatal("no batch frames flushed")
	}
}

// TestUppercaseBatchedOverSimnet sends batch frames through the modelled
// network: whole batches must honor the simulated FIFO delivery.
func TestUppercaseBatchedOverSimnet(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 100e6, Latency: 20 * time.Microsecond, TimeScale: 1})
	defer net.Close()
	trs, err := transport.SimNodes(net, "n0", "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{Batch: true}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	g := buildUppercase(t, app, "upper", "n1 n2")
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: "simnet batch"}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != "SIMNET BATCH" {
		t.Fatalf("got %q", got)
	}
	if app.Stats().FramesBatched == 0 {
		t.Fatal("no batch frames crossed the simulated network")
	}
}

// TestColocatedFastPath: without ForceSerialize, co-located nodes of one
// process hand tokens over by pointer — no serialization, no wire frames.
func TestColocatedFastPath(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	g := buildUppercase(t, app, "upper", "node1*2 node2")
	in := "colocated lanes"
	out, err := callWithin(g, app.MasterNode(), &StringToken{Str: in}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*StringToken).Str; got != strings.ToUpper(in) {
		t.Fatalf("got %q", got)
	}
	st := app.Stats()
	if st.TokensRemote != 0 {
		t.Fatalf("%d tokens serialized between co-located nodes", st.TokensRemote)
	}
	if st.TokensLocal == 0 {
		t.Fatal("no pointer-handoff deliveries counted")
	}
}
