// Command dps-gateway fronts a DPS deployment with an HTTP ingress: it
// multiplexes many concurrent HTTP requests onto Graph.Call invocations of a
// split–compute–merge application running over real TCP kernels, applying
// the serve-path protections of the engine — an in-flight call budget that
// sheds excess load at admission (HTTP 429), per-call deadlines that cancel
// a call even while its split waits on the flow-control window (HTTP 504
// when exceeded), and the sharded pending-call registry that keeps
// thousands of concurrent calls cheap.
//
// The default mode embeds a full deployment in one process for easy driving
// with curl or hey: a name server plus -nodes TCP kernels on loopback, with
// the gateway's application attached to every kernel and its worker threads
// striped across them.
//
//	dps-gateway -listen 127.0.0.1:8080 -nodes 3
//	hey -z 10s -c 200 -m POST -d "dynamic parallel schedules" http://127.0.0.1:8080/call
//	curl -d "hello gateway" http://127.0.0.1:8080/call
//	curl http://127.0.0.1:8080/metrics
//
// Endpoints:
//
//	POST /call    body is the request text (at most 1 MiB); the response
//	              body is the result.
//	              413 when the body is larger than that,
//	              429 Retry-After when the call budget is exhausted,
//	              504 when the per-call deadline expires.
//	GET  /healthz 200 while the engine is healthy, 503 after a fatal error.
//	GET  /metrics the engine's state in the Prometheus text exposition
//	              format: every engine counter, live gauges (in-flight
//	              calls, queue depth), and the call-latency histogram (plus
//	              queue waits when -trace-sample is set).
//	GET  /debug/pprof/  the standard net/http/pprof profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/dps"
	"repro/internal/kernel"
)

// Tokens of the gateway application.
type gwReq struct {
	Text string
}

type gwWord struct {
	Word string
	Pos  int
}

type gwRes struct {
	Text string
}

var (
	_ = dps.Register[gwReq]()
	_ = dps.Register[gwWord]()
	_ = dps.Register[gwRes]()
)

// gatewayConfig collects the tunables of the serve path.
type gatewayConfig struct {
	nodes       int           // loopback TCP kernels to embed
	deadline    time.Duration // per-call deadline
	maxInflight int           // admission budget (0 = unbounded)
	window      int           // per-split flow-control window (0 = default)
	traceSample float64       // fraction of calls to trace (0 = off)
}

// gateway is the HTTP ingress over one deployment. The call indirection
// exists for the handler tests: the HTTP status mapping is exercised
// against injected engine errors without a saturated deployment.
type gateway struct {
	cfg   gatewayConfig
	app   *dps.App
	call  func(ctx context.Context, text string) (string, error)
	close func()
}

// newGateway starts the embedded deployment — name server, cfg.nodes TCP
// kernels on loopback, one engine application attached to all of them — and
// builds the split→upper→merge graph with worker threads striped across
// every kernel.
func newGateway(cfg gatewayConfig) (*gateway, error) {
	if cfg.nodes < 1 {
		return nil, fmt.Errorf("dps-gateway: need at least one node, got %d", cfg.nodes)
	}
	ns, err := kernel.StartNameServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cleanup := []func(){func() { _ = ns.Close() }}
	fail := func(err error) (*gateway, error) {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
		return nil, err
	}
	kernels := make([]*kernel.Kernel, cfg.nodes)
	for i := range kernels {
		k, err := kernel.Start(fmt.Sprintf("gw%d", i), "127.0.0.1:0", ns.Addr())
		if err != nil {
			return fail(err)
		}
		kernels[i] = k
		cleanup = append(cleanup, func() { _ = k.Close() })
	}
	opts := []dps.Option{
		dps.WithMaxInFlightCalls(cfg.maxInflight),
		dps.WithWindow(cfg.window),
	}
	if cfg.traceSample > 0 {
		opts = append(opts, dps.WithTraceSampling(cfg.traceSample))
	}
	app, err := dps.Connect(kernels[0].Transport("gateway"), opts...)
	if err != nil {
		return fail(err)
	}
	cleanup = append(cleanup, app.Close)
	for _, k := range kernels[1:] {
		if err := app.Attach(k.Transport("gateway")); err != nil {
			return fail(err)
		}
	}

	main := dps.MustCollection[struct{}](app, "main")
	if err := main.Map(kernels[0].Name()); err != nil {
		return fail(err)
	}
	workers := dps.MustCollection[struct{}](app, "workers")
	stripe := make([]string, 0, 2*cfg.nodes)
	for range 2 {
		for _, k := range kernels {
			stripe = append(stripe, k.Name())
		}
	}
	if err := workers.MapNodes(stripe...); err != nil {
		return fail(err)
	}

	split := dps.Split("split-words", main, dps.MainRoute(),
		func(c *dps.Ctx, in *gwReq, post func(*gwWord)) {
			for i, w := range strings.Fields(in.Text) {
				post(&gwWord{Word: w, Pos: i})
			}
		})
	upper := dps.Leaf("upper", workers, dps.RoundRobin(),
		func(c *dps.Ctx, in *gwWord) *gwWord {
			return &gwWord{Word: strings.ToUpper(in.Word), Pos: in.Pos}
		})
	merge := dps.Merge("join-words", main, dps.MainRoute(),
		func(c *dps.Ctx, first *gwWord, next func() (*gwWord, bool)) *gwRes {
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
			return &gwRes{Text: strings.Join(out, " ")}
		})
	g, err := dps.Build(app, "gateway-upper",
		dps.Then(dps.Then(dps.Chain(split), upper), merge))
	if err != nil {
		return fail(err)
	}

	gw := &gateway{
		cfg: cfg,
		app: app,
		call: func(ctx context.Context, text string) (string, error) {
			out, err := g.Call(ctx, &gwReq{Text: text})
			if err != nil {
				return "", err
			}
			return out.Text, nil
		},
		close: func() {
			for i := len(cleanup) - 1; i >= 0; i-- {
				cleanup[i]()
			}
		},
	}
	return gw, nil
}

// handler routes the endpoints. Every /call runs under the gateway's
// per-call deadline on top of whatever deadline the client connection
// already carries.
func (gw *gateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/call", gw.handleCall)
	mux.HandleFunc("/healthz", gw.handleHealthz)
	mux.Handle("/metrics", gw.app.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxCallBody bounds a /call request body; a larger one is refused with 413
// rather than truncated.
const maxCallBody = 1 << 20

func (gw *gateway) handleCall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a text body to /call", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCallBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), gw.cfg.deadline)
	defer cancel()
	out, err := gw.call(ctx, string(body))
	switch {
	case err == nil:
		fmt.Fprintln(w, out)
	case errors.Is(err, dps.ErrOverload):
		// Shed at admission: nothing was posted, the client should retry
		// after a short backoff.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in the nginx tradition.
		http.Error(w, err.Error(), 499)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (gw *gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := gw.app.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	nodes := flag.Int("nodes", 3, "loopback TCP kernels to embed")
	deadline := flag.Duration("deadline", 2*time.Second, "per-call deadline")
	maxInflight := flag.Int("max-inflight", 2048, "in-flight call budget; beyond it calls shed with 429 (0 = unbounded)")
	window := flag.Int("window", 0, "per-split flow-control window (0 = engine default)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of calls to trace (0..1); sampled timelines via App.TraceSpans")
	flag.Parse()

	gw, err := newGateway(gatewayConfig{
		nodes:       *nodes,
		deadline:    *deadline,
		maxInflight: *maxInflight,
		window:      *window,
		traceSample: *traceSample,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-gateway:", err)
		os.Exit(1)
	}
	defer gw.close()

	srv := &http.Server{Addr: *listen, Handler: gw.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("dps-gateway listening on http://%s (%d kernels, budget %d, deadline %v)\n",
		*listen, *nodes, *maxInflight, *deadline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dps-gateway:", err)
		os.Exit(1)
	case <-sig:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
}
