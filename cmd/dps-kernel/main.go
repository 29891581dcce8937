// Command dps-kernel runs the DPS runtime-environment daemons of the
// paper's §4 over real TCP sockets: a simple name server and per-node
// kernels that register with it. Kernels are named independently of host
// names, so several kernels can share one machine (the paper's debugging
// mode).
//
// Start a name server:
//
//	dps-kernel -serve-ns -listen 127.0.0.1:7000
//
// Start kernels against it:
//
//	dps-kernel -name nodeA -listen 127.0.0.1:0 -ns 127.0.0.1:7000
//	dps-kernel -name nodeB -listen 127.0.0.1:0 -ns 127.0.0.1:7000
//
// A -demo flag on one kernel runs the tutorial uppercase application,
// demonstrating lazy application attachment and on-demand TCP connections.
// With -serve the kernel keeps the demo application alive afterwards and
// accepts live-remap control messages from other processes:
//
//	dps-kernel -name nodeA -listen 127.0.0.1:0 -ns 127.0.0.1:7000 -demo -serve
//	dps-kernel -ns 127.0.0.1:7000 -remap-target nodeA -remap-app demo \
//	           -remap-collection workers -remap-spec "nodeA*4"
//
// The single-binary demo attaches only the local kernel, so its remaps
// exercise the control plane and placement epochs but cannot move threads
// off-machine. An application that attaches several kernels' transports to
// one engine App (see internal/kernel's tests) migrates threads between
// kernel processes with exactly the same control message — quiesce, state
// shipment over TCP, token forwarding included.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/dps"
	"repro/internal/kernel"
	"repro/internal/trace/promtext"
	"repro/internal/transport/tcptransport"
)

// Tokens of the demo application.
type demoReq struct {
	Text string
}

type demoWord struct {
	Word string
	Pos  int
}

type demoRes struct {
	Text string
}

var (
	_ = dps.Register[demoReq]()
	_ = dps.Register[demoWord]()
	_ = dps.Register[demoRes]()
)

func main() {
	serveNS := flag.Bool("serve-ns", false, "run the name server instead of a kernel")
	name := flag.String("name", "", "kernel name (required unless -serve-ns)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	ns := flag.String("ns", "127.0.0.1:7000", "name server address")
	demo := flag.Bool("demo", false, "run the uppercase demo across all registered kernels, then exit")
	serve := flag.Bool("serve", false, "with -demo: keep the demo app alive and accept live-remap control messages")
	window := flag.Int("window", 0, "demo app: per-split flow-control window (0 = default)")
	remapTarget := flag.String("remap-target", "", "client mode: kernel to send a live-remap control message to, then exit")
	remapApp := flag.String("remap-app", "demo", "client mode: application instance to remap")
	remapCollection := flag.String("remap-collection", "workers", "client mode: thread collection to remap")
	remapSpec := flag.String("remap-spec", "", "client mode: new placement in mapping-string syntax")
	heartbeat := flag.Duration("heartbeat", 0, "probe peer kernels at this interval and report deaths (with -demo -serve: enables checkpointing and automatic failover)")
	metricsListen := flag.String("metrics-listen", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
	traceSample := flag.Float64("trace-sample", 0, "demo app: fraction of calls to trace (0..1)")
	traceDump := flag.Uint64("trace-dump", 0, "client mode: collect the spans of this trace ID from every registered kernel, print the JSON timeline, then exit")
	flag.Parse()

	if *serveNS {
		srv, err := kernel.StartNameServer(*listen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("name server listening on %s\n", srv.Addr())
		waitForInterrupt()
		_ = srv.Close()
		return
	}

	if *traceDump != 0 {
		spans, err := kernel.CollectTrace(*ns, *traceDump, 5*time.Second)
		if err != nil {
			fatal(err)
		}
		out, err := json.MarshalIndent(spans, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	if *remapTarget != "" {
		req := kernel.RemapRequest{App: *remapApp, Collection: *remapCollection, Spec: *remapSpec}
		if req.Spec == "" {
			fatal(fmt.Errorf("-remap-spec is required with -remap-target"))
		}
		if err := kernel.SendRemap(*ns, *remapTarget, req); err != nil {
			fatal(err)
		}
		fmt.Printf("remap request sent to %q: %s/%s -> %q\n", *remapTarget, req.App, req.Collection, req.Spec)
		return
	}

	if *name == "" {
		fatal(fmt.Errorf("a kernel needs -name"))
	}
	k, err := kernel.Start(*name, *listen, *ns)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kernel %q listening on %s (name server %s)\n", k.Name(), k.Addr(), *ns)

	if *demo {
		// The demo installs its own OnFailover handler (feeding the engine's
		// recovery) before the heartbeat starts, so a peer declared dead in
		// the startup window is not lost to a print-only handler.
		if err := runDemo(k, *ns, *window, *serve, *heartbeat, *metricsListen, *traceSample); err != nil {
			fatal(err)
		}
		_ = k.Close()
		return
	}
	if *metricsListen != "" {
		// A plain kernel hosts no application yet; the debug server still
		// exposes process gauges and pprof.
		if err := startDebugServer(*metricsListen, processMetricsHandler(k)); err != nil {
			fatal(err)
		}
	}
	if *heartbeat > 0 {
		k.OnFailover(func(peer string) { fmt.Printf("kernel %q declared dead\n", peer) })
		k.StartHeartbeat(*heartbeat, 3)
		fmt.Printf("heartbeating peers every %v\n", *heartbeat)
	}
	waitForInterrupt()
	_ = k.Close()
}

// startDebugServer serves the metrics handler plus net/http/pprof on addr,
// in the background for the life of the process.
func startDebugServer(addr string, metrics http.Handler) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

// processMetricsHandler exports process-level gauges and the kernel's
// transport counters for a kernel that is not hosting an application (the
// engine counters come with the app).
func processMetricsHandler(k *kernel.Kernel) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := &promtext.Encoder{}
		enc.Gauge("dps_goroutines", "Goroutines in this process.", float64(runtime.NumGoroutine()))
		transportMetrics(enc, k.TransportStats())
		w.Header().Set("Content-Type", promtext.ContentType)
		_, _ = w.Write(enc.Bytes())
	})
}

// appMetricsHandler serves an application's metrics followed by the
// kernel's transport counters.
func appMetricsHandler(app *dps.App, k *kernel.Kernel) http.Handler {
	h := app.MetricsHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		enc := &promtext.Encoder{}
		transportMetrics(enc, k.TransportStats())
		_, _ = w.Write(enc.Bytes())
	})
}

// transportMetrics writes the kernel node's socket counters. Frames sent
// over writes is how many frames a socket write carried on average; cork
// timeouts count the corks that the 100 µs backstop let go, not an uncork.
func transportMetrics(enc *promtext.Encoder, st tcptransport.Stats) {
	enc.Counter("dps_transport_writes_total", "Socket writes attempted by the kernel's node.", float64(st.Writes))
	enc.Counter("dps_transport_frames_sent_total", "Frames wholly handed to the kernel's sockets.", float64(st.FramesSent))
	enc.Counter("dps_transport_frames_corked_total", "Frames held for an uncork (transport.Corker).", float64(st.FramesCorked))
	enc.Counter("dps_transport_cork_timeouts_total", "Corks let go by the backstop rather than an uncork.", float64(st.CorkTimeouts))
	enc.Counter("dps_transport_reads_total", "Socket reads by the kernel's node.", float64(st.Reads))
	enc.Counter("dps_transport_frames_discarded_total", "Frames read whole on a connection a newer session of the same peer had superseded, and dropped.", float64(st.FramesDiscarded))
	enc.Counter("dps_transport_dials_total", "Outbound connection attempts by the kernel's node.", float64(st.Dials))
	enc.Counter("dps_transport_retries_total", "Send attempts repeated after a transient failure, within the retry budget.", float64(st.Retries))
}

// runDemo builds the tutorial split-compute-merge graph over every kernel
// currently registered with the name server and converts a sentence to
// uppercase in parallel. With serve it then keeps calling the graph once a
// second and accepts live-remap control messages, printing the worker
// placement after each migration.
func runDemo(local *kernel.Kernel, ns string, window int, serve bool, heartbeat time.Duration, metricsListen string, traceSample float64) error {
	names, err := kernel.ListNames(ns)
	if err != nil {
		return err
	}
	var peers []string
	for n := range names {
		peers = append(peers, n)
	}
	sort.Strings(peers)
	fmt.Printf("demo across kernels: %v\n", peers)

	// In a full deployment every kernel process attaches its own instance
	// of the application; this single-binary demo attaches the local
	// kernel and runs four worker threads on it (the listing above shows
	// which peers a multi-process deployment would map to). With
	// -heartbeat the application also checkpoints, and a peer kernel
	// declared dead is handed to the engine's failover (for an application
	// spanning several kernels' transports this recovers the dead
	// kernel's threads onto the survivors).
	opts := []dps.Option{dps.WithWindow(window)}
	if heartbeat > 0 {
		opts = append(opts, dps.WithCheckpoint(10*heartbeat))
	}
	if traceSample > 0 {
		opts = append(opts, dps.WithTraceSampling(traceSample))
	}
	app, err := dps.Connect(local.Transport("demo"), opts...)
	if err != nil {
		return err
	}
	defer app.Close()
	// Trace-collection requests (dps-kernel -trace-dump) are answered from
	// the application's span rings.
	local.OnTrace(app.TraceSpans)
	if metricsListen != "" {
		if err := startDebugServer(metricsListen, appMetricsHandler(app, local)); err != nil {
			return err
		}
	}
	if heartbeat > 0 {
		local.OnFailover(func(peer string) {
			if err := app.FailNode(peer); err != nil {
				fmt.Printf("failover of %q: %v\n", peer, err)
				return
			}
			fmt.Printf("kernel %q died; its threads were recovered (stats: %d failovers, %d replayed)\n",
				peer, app.Stats().FailoversCompleted, app.Stats().TokensReplayed)
		})
		local.StartHeartbeat(heartbeat, 3)
		fmt.Printf("heartbeating peers every %v\n", heartbeat)
	}

	main := dps.MustCollection[struct{}](app, "main")
	if err := main.Map(local.Name()); err != nil {
		return err
	}
	workers := dps.MustCollection[struct{}](app, "workers")
	if err := workers.Map(local.Name() + "*4"); err != nil {
		return err
	}

	split := dps.Split("split-words", main, dps.MainRoute(),
		func(c *dps.Ctx, in *demoReq, post func(*demoWord)) {
			for i, w := range strings.Fields(in.Text) {
				post(&demoWord{Word: w, Pos: i})
			}
		})
	upper := dps.Leaf("upper", workers, dps.RoundRobin(),
		func(c *dps.Ctx, in *demoWord) *demoWord {
			return &demoWord{Word: strings.ToUpper(in.Word), Pos: in.Pos}
		})
	merge := dps.Merge("join-words", main, dps.MainRoute(),
		func(c *dps.Ctx, first *demoWord, next func() (*demoWord, bool)) *demoRes {
			words := map[int]string{}
			max := 0
			for in, ok := first, true; ok; in, ok = next() {
				words[in.Pos] = in.Word
				if in.Pos > max {
					max = in.Pos
				}
			}
			out := make([]string, max+1)
			for i := range out {
				out[i] = words[i]
			}
			return &demoRes{Text: strings.Join(out, " ")}
		})
	g, err := dps.Build(app, "demo-upper",
		dps.Then(dps.Then(dps.Chain(split), upper), merge))
	if err != nil {
		return err
	}
	out, err := g.Call(context.Background(), &demoReq{Text: "dynamic parallel schedules over tcp kernels"})
	if err != nil {
		return err
	}
	fmt.Printf("demo result: %s\n", out.Text)
	if !serve {
		return nil
	}

	// Live mode: keep the application serving and let control messages
	// remap the worker collection while calls run.
	local.OnRemap(func(req kernel.RemapRequest) error {
		if req.App != "demo" {
			return fmt.Errorf("unknown app %q", req.App)
		}
		tc, ok := app.Collection(req.Collection)
		if !ok {
			return fmt.Errorf("unknown collection %q", req.Collection)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := tc.Remap(ctx, req.Spec); err != nil {
			fmt.Printf("remap failed: %v\n", err)
			return err
		}
		fmt.Printf("collection %q remapped (epoch %d): %v\n", req.Collection, tc.Epoch(), tc.Placements())
		return nil
	})
	fmt.Println("serving; send -remap-target control messages to migrate workers (ctrl-c to stop)")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	for i := 0; ; i++ {
		select {
		case <-stop:
			fmt.Println("shutting down")
			return nil
		case <-time.After(time.Second):
		}
		out, err := g.Call(context.Background(), &demoReq{Text: fmt.Sprintf("serving call %d over tcp kernels", i)})
		if err != nil {
			return err
		}
		fmt.Printf("call %d: %s (stats: %d migrations, %d forwarded)\n",
			i, out.Text, app.Stats().MigrationsCompleted, app.Stats().TokensForwarded)
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	fmt.Println("shutting down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dps-kernel:", err)
	os.Exit(1)
}
