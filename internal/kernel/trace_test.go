package kernel

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// hookFor returns an OnTrace hook that serves a fixed span slice for one
// trace ID, imitating a process's span ring.
func hookFor(id uint64, spans ...trace.Span) func(uint64) []trace.Span {
	return func(got uint64) []trace.Span {
		if got != id {
			return nil
		}
		return spans
	}
}

// TestCollectTraceAcrossKernels: a kernel assembles one call's timeline from
// its own hook plus every name-server peer's, sorted into timeline order.
func TestCollectTraceAcrossKernels(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	k2 := startKernel(t, ns, "kB")
	k1.OnTrace(hookFor(42,
		trace.Span{Trace: 42, Kind: "post", Node: "n0", Start: 10},
		trace.Span{Trace: 42, Kind: "result", Node: "n0", Start: 40},
	))
	k2.OnTrace(hookFor(42,
		trace.Span{Trace: 42, Kind: "execute", Node: "n1", Start: 20, Dur: 5},
	))

	spans, err := k1.CollectTrace(42, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3: %+v", len(spans), spans)
	}
	for i, wantKind := range []string{"post", "execute", "result"} {
		if spans[i].Kind != wantKind {
			t.Errorf("span %d kind = %q, want %q (timeline order)", i, spans[i].Kind, wantKind)
		}
	}
	if spans[1].Node != "n1" {
		t.Errorf("peer span lost its node: %+v", spans[1])
	}

	// An unknown trace collects an empty (not failed) timeline.
	if spans, err := k1.CollectTrace(7, 2*time.Second); err != nil || len(spans) != 0 {
		t.Fatalf("unknown trace: spans=%v err=%v", spans, err)
	}
}

// TestCollectTraceEphemeralClient: the package-level collector works without
// registering in the name server — its reply coordinates travel inside the
// request (the dps-kernel -trace-dump path).
func TestCollectTraceEphemeralClient(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	k2 := startKernel(t, ns, "kB")
	k1.OnTrace(hookFor(99, trace.Span{Trace: 99, Kind: "post", Node: "n0", Start: 1}))
	k2.OnTrace(hookFor(99, trace.Span{Trace: 99, Kind: "execute", Node: "n1", Start: 2}))

	spans, err := CollectTrace(ns.Addr(), 99, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Kind != "post" || spans[1].Kind != "execute" {
		t.Fatalf("collected %+v", spans)
	}
}

// TestCollectTraceWithoutHooks: kernels that never installed OnTrace answer
// with empty slices; collection still succeeds.
func TestCollectTraceWithoutHooks(t *testing.T) {
	ns := startNS(t)
	k1 := startKernel(t, ns, "kA")
	startKernel(t, ns, "kB")
	spans, err := k1.CollectTrace(5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("hookless cluster produced spans: %+v", spans)
	}
}

// TestTraceReqCodecRoundTrip pins the request wire helper, including the
// reply-coordinate strings an ephemeral collector depends on.
func TestTraceReqCodecRoundTrip(t *testing.T) {
	b := appendControlTraceReq(nil, 1<<40, "trace-client-7", "127.0.0.1:9999")
	id, name, addr, err := decodeControlTraceReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1<<40 || name != "trace-client-7" || addr != "127.0.0.1:9999" {
		t.Fatalf("got id=%d name=%q addr=%q", id, name, addr)
	}
	for n := 0; n < len(b); n++ {
		if _, _, _, err := decodeControlTraceReq(b[:n]); err == nil {
			// Truncations that cut a string short must error; a prefix that
			// happens to end exactly on a field boundary decodes only if every
			// field is complete, which for this payload is the full frame.
			t.Errorf("truncated request of %d bytes decoded", n)
		}
	}
}
