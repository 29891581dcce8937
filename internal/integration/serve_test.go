package integration

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dps"
	"repro/internal/transport/tcptransport"
)

type svReq struct{ Seq, Fan int }
type svPart struct{ Seq, I int }
type svRes struct{ Seq, N int }

var (
	_ = dps.Register[svReq]()
	_ = dps.Register[svPart]()
	_ = dps.Register[svRes]()
)

// TestServeOutcomeContract saturates a 3-node real-TCP deployment — split on
// sv0, leaves load-balanced over sv1/sv2, merge on sv0 — with far more
// closed-loop callers than the in-flight budget admits. Under that overload
// every call ends in exactly one of three ways (completed, shed at admission
// with ErrOverload, expired at its own deadline), no caller hangs past its
// last call's deadline, and the drained application holds no pending call.
// The split posts more tokens than its window holds, so posts park on the
// flow-control gate and a call that expires may do so while parked there.
// Nothing here is a timing assertion: rates are dps-perf's business.
func TestServeOutcomeContract(t *testing.T) {
	const (
		callers  = 300
		budget   = 32
		fan      = 4
		window   = 2 // < fan: every split can stall
		span     = 300 * time.Millisecond
		deadline = 2 * time.Second
	)
	names := []string{"sv0", "sv1", "sv2"}
	table := map[string]string{}
	resolver := tcptransport.StaticResolver(table)
	var app *dps.App
	for _, name := range names {
		n, err := tcptransport.Listen(name, "127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		table[name] = n.Addr()
		if app == nil {
			app, err = dps.Connect(n,
				dps.WithMaxInFlightCalls(budget),
				dps.WithWindow(window))
			if err == nil {
				t.Cleanup(app.Close)
			}
		} else {
			err = app.Attach(n)
		}
		if err != nil {
			n.Close()
			t.Fatal(err)
		}
	}
	front := dps.MustCollection[struct{}](app, "sv-front")
	if err := front.MapNodes(names[0]); err != nil {
		t.Fatal(err)
	}
	workers := dps.MustCollection[struct{}](app, "sv-workers")
	if err := workers.MapNodes(names[1], names[2], names[1], names[2]); err != nil {
		t.Fatal(err)
	}
	split := dps.Split("sv-split", front, dps.MainRoute(),
		func(c *dps.Ctx, in *svReq, post func(*svPart)) {
			for i := 0; i < in.Fan; i++ {
				post(&svPart{Seq: in.Seq, I: i})
			}
		})
	work := dps.Leaf("sv-work", workers, dps.LoadBalanced(),
		func(c *dps.Ctx, in *svPart) *svPart { return in })
	merge := dps.Merge("sv-merge", front, dps.MainRoute(),
		func(c *dps.Ctx, first *svPart, next func() (*svPart, bool)) *svRes {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &svRes{Seq: first.Seq, N: n}
		})
	g, err := dps.Build(app, "sv-fan", dps.Then(dps.Then(dps.Chain(split), work), merge))
	if err != nil {
		t.Fatal(err)
	}
	// Open the TCP lanes from every origin before the load starts.
	for _, origin := range names {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := g.CallFrom(ctx, origin, &svReq{Fan: fan})
		cancel()
		if err != nil {
			t.Fatalf("warm-up from %s: %v", origin, err)
		}
	}

	var completed, shed, expired atomic.Int64
	other := make(chan error, 1) // first error outside the contract
	report := func(err error) {
		select {
		case other <- err:
		default:
		}
	}
	stopAt := time.Now().Add(span)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			origin := names[i%len(names)]
			backoff := 250 * time.Microsecond // doubled per shed call, as an ingress client would
			for time.Now().Before(stopAt) {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				out, err := g.CallFrom(ctx, origin, &svReq{Seq: i, Fan: fan})
				cancel()
				switch {
				case err == nil:
					if out.Seq != i || out.N != fan {
						report(errors.New("completed call returned another call's result"))
						return
					}
					completed.Add(1)
					backoff = 250 * time.Microsecond
				case errors.Is(err, dps.ErrOverload):
					shed.Add(1)
					time.Sleep(backoff)
					backoff = min(2*backoff, 8*time.Millisecond)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					report(err)
					return
				}
			}
		}(i)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	// A caller's last call starts before stopAt and is bounded by its own
	// deadline; the slack covers scheduling 300 goroutines under -race.
	select {
	case <-drained:
	case <-time.After(span + deadline + 10*time.Second):
		t.Fatalf("callers still blocked past span+deadline: a call hung (%d pending)", app.PendingCalls())
	}
	select {
	case err := <-other:
		t.Fatalf("a call ended outside the overload contract: %v", err)
	default:
	}
	t.Logf("%d completed, %d shed, %d expired", completed.Load(), shed.Load(), expired.Load())
	if completed.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("%d callers on a budget of %d: completed %d, shed %d, want both",
			callers, budget, completed.Load(), shed.Load())
	}
	if pending := app.PendingCalls(); pending != 0 {
		t.Fatalf("%d calls pending after the drain", pending)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("app.Err() = %v", err)
	}
	st := app.Stats()
	if st.CallsRejected != shed.Load() {
		t.Errorf("Stats.CallsRejected = %d, callers saw %d ErrOverload", st.CallsRejected, shed.Load())
	}
	t.Logf("%d posts stalled on the window", st.WindowStalls)
	if st.WindowStalls == 0 {
		t.Errorf("no post stalled on a %d-slot window with %d tokens per split: the stall path went unexercised", window, fan)
	}
}
