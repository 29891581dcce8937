package perf

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/dps"
	"repro/internal/core"
	"repro/internal/core/flowctl"
	"repro/internal/core/place"
	"repro/internal/core/sched"
	"repro/internal/serial"
	"repro/internal/transport"
	"repro/internal/transport/tcptransport"
)

// probeBatches is how many batches each probe times; it reports the median.
const probeBatches = 5

// probe times op, which must perform n operations when called with n. It
// sizes a batch to last about cfg.probeFor, runs probeBatches of them between
// two yardstick slices and returns the median nanoseconds, in
// yardstick-normalised time, and the median heap allocations per operation.
func probe(cfg runConfig, op func(n int)) (ns, allocs float64) {
	target := cfg.probeFor
	n := 1
	for {
		start := time.Now()
		op(n)
		if el := time.Since(start); el >= target/2 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var nss, allocss []float64
	var ms runtime.MemStats
	var host gauge
	host.take(cfg.yard)
	for i := 0; i < probeBatches; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		op(n)
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(el.Nanoseconds())/float64(n))
		allocss = append(allocss, float64(ms.Mallocs-before)/float64(n))
	}
	host.take(cfg.yard)
	return median(nss) / host.slowness(), median(allocss)
}

func ns(v float64) Value    { return Value{Value: v, Unit: "ns"} }
func count(v float64) Value { return Value{Value: v, Unit: "count"} }

// runProbes times calls into each layer's public functions, with the
// workload's own token where a layer's cost depends on it.
func runProbes(def workloadDef, cfg runConfig) (map[string]Value, error) {
	out := make(map[string]Value)

	// serial: Registry.Append / Unmarshal of the workload's main token.
	tok := def.token(cfg.seed)
	reg := serial.DefaultRegistry
	data, err := reg.Marshal(tok)
	if err != nil {
		return nil, fmt.Errorf("serial: %w", err)
	}
	buf := make([]byte, 0, len(data))
	v, a := probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = reg.Append(buf[:0], tok) // Marshal above proved tok encodable
		}
	})
	out["serial.encode_ns"], out["serial.encode_allocs"] = ns(v), count(a)
	v, a = probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, derr := reg.Unmarshal(data); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serial: decoding Marshal's own output: %w", err)
	}
	out["serial.decode_ns"], out["serial.decode_allocs"] = ns(v), count(a)
	out["serial.encoded_bytes"] = Value{Value: float64(len(data)), Unit: "B"}

	// sched: enqueue -> drainer -> RunFunc, in bursts of one flow-control
	// window (the most tokens the engine keeps in flight toward one thread).
	var (
		inst *sched.Instance[int]
		ran  = make(chan struct{}, flowctl.DefaultWindow)
	)
	s := sched.New(sched.Config{}, func(_ int, tk sched.Ticket, fromDrainer bool) bool {
		tk.Wait()
		inst.Unlock()
		ran <- struct{}{}
		return fromDrainer
	})
	inst = s.NewInstance(0)
	v, a = probe(cfg, func(n int) {
		for done := 0; done < n; {
			burst := min(n-done, flowctl.DefaultWindow)
			for i := 0; i < burst; i++ {
				inst.Enqueue(i)
			}
			for i := 0; i < burst; i++ {
				<-ran
			}
			done += burst
		}
	})
	out["sched.enqueue_run_ns"], out["sched.enqueue_allocs"] = ns(v), count(a)

	// flowctl: one window slot, one load-balancing credit.
	gate := flowctl.Window{}.NewGate()
	v, _ = probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			gate.TryAcquire()
			gate.Release()
		}
	})
	out["flowctl.gate_ns"] = ns(v)
	credits := flowctl.NewCredits(fanLeafThreads)
	v, _ = probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			credits.Charge(i % fanLeafThreads)
			credits.Release(i % fanLeafThreads)
		}
	})
	out["flowctl.credits_ns"] = ns(v)

	// place: thread -> node lookup.
	var table place.Table
	table.Set([]string{"n1", "n2", "n1", "n2"})
	v, _ = probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			table.NodeOf(i % fanLeafThreads)
		}
	})
	out["place.lookup_ns"] = ns(v)

	// callreg: one register -> complete -> receive -> recycle cycle. The
	// engine's own benchmark hook times itself, so the slices go around it.
	cycles := make([]float64, probeBatches)
	var host gauge
	host.take(cfg.yard)
	for i := range cycles {
		cycles[i] = 1e9 / core.BenchCallRegistry(0, 1, cfg.probeFor)
	}
	host.take(cfg.yard)
	out["callreg.cycle_ns"] = ns(median(cycles) / host.slowness())

	// core: the workload's own graph on one in-process node, by pointer
	// handoff and with every hop serialized.
	for _, mode := range []struct {
		prefix    string
		serialize bool
	}{{"core.local_call", false}, {"core.serialized_call", true}} {
		v, a, err := probeLocal(def, cfg, mode.serialize)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.prefix, err)
		}
		out[mode.prefix+"_ns"], out[mode.prefix+"_allocs"] = ns(v), count(a)
	}

	// dps: what the typed façade adds to a call.
	if v, err = probeFacade(cfg); err != nil {
		return nil, fmt.Errorf("dps.facade: %w", err)
	}
	out["dps.facade_ns"] = ns(v)

	// transports: frames the size of the workload's encoded token.
	frame, rtt, err := probeTCP(cfg, len(data))
	if err != nil {
		return nil, fmt.Errorf("tcptransport: %w", err)
	}
	out["tcptransport.frame_ns"], out["tcptransport.rtt_ns"] = ns(frame), ns(rtt)
	fabric := transport.NewInproc()
	defer fabric.Close()
	a0, err := fabric.Node("a")
	if err != nil {
		return nil, err
	}
	b0, err := fabric.Node("b")
	if err != nil {
		return nil, err
	}
	if v, err = probeFrames(cfg, a0, b0, len(data)); err != nil {
		return nil, fmt.Errorf("inproc: %w", err)
	}
	out["inproc.frame_ns"] = ns(v)
	return out, nil
}

// probeLocal builds the workload on a one-node in-process application and
// times its ops from one caller.
func probeLocal(def workloadDef, cfg runConfig, serialize bool) (nsPerOp, allocs float64, err error) {
	opts := append([]dps.Option{dps.WithNodes("n0"), dps.WithForceSerialize(serialize)}, def.opts...)
	app, err := dps.NewLocal(opts...)
	if err != nil {
		return 0, 0, err
	}
	defer app.Close()
	m := newMeter(cfg.procs)
	d, err := def.build(&env{app: app, nodes: [3]string{"n0", "n0", "n0"}, seed: cfg.seed, procs: cfg.procs, m: m})
	if err != nil {
		return 0, 0, err
	}
	if err := d.run(def.warmOps); err != nil {
		return 0, 0, err
	}
	var runErr error
	nsPerOp, allocs = probe(cfg, func(n int) {
		if err := d.run(n); err != nil && runErr == nil {
			runErr = err
		}
	})
	return nsPerOp, allocs, runErr
}

// probeFacade times a one-leaf graph through the typed Graph.Call and through
// the engine's Flowgraph.Call and returns the difference.
func probeFacade(cfg runConfig) (float64, error) {
	app, err := dps.NewLocal()
	if err != nil {
		return 0, err
	}
	defer app.Close()
	col, err := dps.NewCollection[struct{}](app, "facade")
	if err != nil {
		return 0, err
	}
	if err := col.MapNodes(app.MasterNode()); err != nil {
		return 0, err
	}
	pong := &Pong{}
	g, err := dps.Build(app, "facade", dps.Chain(dps.Leaf("facade", col, dps.MainRoute(),
		func(*dps.Ctx, *Ping) *Pong { return pong })))
	if err != nil {
		return 0, err
	}
	ctx, in, fg := context.Background(), &Ping{}, g.Flowgraph()
	var callErr error
	typed, _ := probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := g.Call(ctx, in); err != nil {
				callErr = err
			}
		}
	})
	untyped, _ := probe(cfg, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := fg.Call(ctx, in); err != nil {
				callErr = err
			}
		}
	})
	return typed - untyped, callErr
}

// probeFrames times pipelined Send -> handler delivery of size-byte frames
// from a to b, per frame. One payload is reused: neither transport probed
// here keeps or alters a payload after Send returns (tcptransport has written
// it to the socket; Inproc hands the same bytes to a handler that only counts).
func probeFrames(cfg runConfig, a, b transport.Transport, size int) (float64, error) {
	var got, want atomic.Int64
	arrived := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) {
		if got.Add(1) == want.Load() {
			arrived <- struct{}{}
		}
	})
	payload := make([]byte, size)
	var sendErr error
	v, _ := probe(cfg, func(n int) {
		got.Store(0)
		want.Store(int64(n))
		for i := 0; i < n; i++ {
			if err := a.Send(b.Local(), payload); err != nil {
				sendErr = err
				return
			}
		}
		<-arrived
	})
	return v, sendErr
}

// probeTCP measures two tcptransport nodes on loopback: pipelined frames one
// way, and a ping-pong round trip.
func probeTCP(cfg runConfig, size int) (frame, rtt float64, err error) {
	table := make(map[string]string)
	resolver := tcptransport.StaticResolver(table)
	a, err := tcptransport.Listen("a", "127.0.0.1:0", resolver)
	if err != nil {
		return 0, 0, err
	}
	b, err := tcptransport.Listen("b", "127.0.0.1:0", resolver)
	if err != nil {
		_ = a.Close()
		return 0, 0, err
	}
	table["a"], table["b"] = a.Addr(), b.Addr()
	defer closeTogether(a, b)
	a.SetHandler(func(string, []byte) {})
	if frame, err = probeFrames(cfg, a, b, size); err != nil {
		return 0, 0, err
	}

	// back carries the echo's outcome to the pinging side.
	back := make(chan error, 1)
	a.SetHandler(func(string, []byte) { back <- nil })
	b.SetHandler(func(src string, p []byte) {
		if err := b.Send(src, p); err != nil {
			back <- err
		}
	})
	payload := make([]byte, size)
	rtt, _ = probe(cfg, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			if err = a.Send("b", payload); err == nil {
				err = <-back
			}
		}
	})
	return frame, rtt, err
}
