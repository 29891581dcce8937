package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// BenchCallRegistry measures the pending-call registry in isolation: callers
// goroutines register and settle calls back-to-back through the real
// registerCall/completeCall path (admission counter, shard map store,
// settlement send, entry recycling) with no graph, wire or timer work in the
// loop, and the sustained ops/s is returned. One op is one full
// register→complete→receive→recycle cycle.
//
// shards is the table width to measure (0: DefaultCallShards, what every
// application runs; 1: a single mutex). It exists only here: the width is
// not configurable, and the sharded-vs-mutex ratio is recorded in DESIGN.md
// ("Serve path"). dps-perf reports the default width as callreg.cycle_ns.
func BenchCallRegistry(shards, callers int, span time.Duration) float64 {
	app, err := NewLocalApp(Config{}, "reg0")
	if err != nil {
		panic(err)
	}
	defer app.Close()
	app.callreg.initCallRegistry(shards) // nothing is registered yet
	rt, _ := app.runtime("reg0")
	ctx := context.Background()
	var (
		ops  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				id, ce, err := app.registerCall(ctx, rt)
				if err != nil {
					// No admission budget is configured; registration
					// cannot be refused.
					continue
				}
				app.completeCall(id, CallResult{})
				<-ce.ch
				recycleCallEntry(ce)
				ops.Add(1)
			}
		}()
	}
	time.Sleep(span)
	stop.Store(true)
	wg.Wait()
	return float64(ops.Load()) / span.Seconds()
}
