package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/serial"
)

type bufReq struct{ Call, Width int }

type bufPart struct{ Call, Index int }

type bufSum struct{ Call, Parts, Indexes int }

var (
	_ = serial.MustRegister[bufReq]()
	_ = serial.MustRegister[bufPart]()
	_ = serial.MustRegister[bufSum]()
)

// TestHandedDownBufferNeverCrossesGroups pipelines calls of widths 1–8
// through one merge thread, so each group's buffer starts from the array the
// previous completed group on that thread handed down. Every fourth call is
// canceled while its merge is parked mid-group. Each merge must see exactly
// its own call's parts, the application must stay healthy, every
// handed-down array must be empty, and no canceled group's array may ever be
// handed down.
func TestHandedDownBufferNeverCrossesGroups(t *testing.T) {
	const calls, callers = 64, 8
	width := func(i int) int { return i%8 + 1 }
	doomed := func(i int) bool { return i%4 == 3 } // widths 4 and 8

	app, err := NewLocalApp(Config{}, "m", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	var mu sync.Mutex
	callIDs := make(map[int]uint64) // call index -> engine call ID
	handed := make(map[uint64]int)  // engine call ID -> arrays handed down
	app.handDownHook = func(callID uint64, buf []bufferedToken) {
		for i, bt := range buf[:cap(buf)] {
			if bt != (bufferedToken{}) {
				t.Errorf("call %d handed down an array whose slot %d still holds %+v", callID, i, bt)
			}
		}
		mu.Lock()
		handed[callID]++
		mu.Unlock()
	}

	// A doomed call's parts after the first park in their leaf until the
	// caller has seen the cancellation; its merge reports when it started.
	hold := make([]chan struct{}, calls)
	started := make([]chan struct{}, calls)
	for i := range hold {
		hold[i], started[i] = make(chan struct{}), make(chan struct{})
	}

	main := MustCollection[struct{}](app, "hd-main")
	if err := main.Map("m"); err != nil {
		t.Fatal(err)
	}
	work := MustCollection[struct{}](app, "hd-work")
	// Thread 0 runs only first parts, which never park, so a doomed merge
	// always starts; the parking parts share threads 1 and 2.
	if err := work.Map("m w w"); err != nil {
		t.Fatal(err)
	}
	split := Split[*bufReq, *bufPart]("hd-split", func(c *Ctx, in *bufReq, post func(*bufPart)) {
		mu.Lock()
		callIDs[in.Call] = c.callID
		mu.Unlock()
		for i := 0; i < in.Width; i++ {
			post(&bufPart{Call: in.Call, Index: i})
		}
	})
	leaf := Leaf[*bufPart, *bufPart]("hd-leaf", func(c *Ctx, in *bufPart) *bufPart {
		if doomed(in.Call) && in.Index > 0 {
			<-hold[in.Call]
		}
		return in
	})
	merge := Merge[*bufPart, *bufSum]("hd-merge", func(c *Ctx, first *bufPart, next func() (*bufPart, bool)) *bufSum {
		if doomed(first.Call) {
			close(started[first.Call])
		}
		out := &bufSum{Call: first.Call}
		for in, ok := first, true; ok; in, ok = next() {
			if in.Call != first.Call {
				t.Errorf("the merge of call %d was handed part %d of call %d", first.Call, in.Index, in.Call)
			}
			out.Parts++
			out.Indexes |= 1 << in.Index
		}
		return out
	})
	route := ByKey[*bufPart]("hd-route", func(in *bufPart) int {
		if in.Index == 0 {
			return 0
		}
		return 1 + in.Index%2
	})
	g, err := app.NewFlowgraph("hd", Path(
		NewNode(split, main, MainRoute()),
		NewNode(leaf, work, route),
		NewNode(merge, main, MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}

	run := func(i int) error {
		req := &bufReq{Call: i, Width: width(i)}
		if !doomed(i) {
			out, err := callWithin(g, "m", req, 30*time.Second)
			if err != nil {
				return err
			}
			if s := out.(*bufSum); s.Call != i || s.Parts != req.Width || s.Indexes != 1<<req.Width-1 {
				return fmt.Errorf("merged %+v, want all %d parts of its own call", s, req.Width)
			}
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := g.CallFrom(ctx, "m", req)
			done <- err
		}()
		select {
		case <-started[i]:
		case <-time.After(30 * time.Second):
			return errors.New("the merge never started")
		}
		cancel()
		err := <-done
		close(hold[i])
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("canceled call returned %v", err)
		}
		return nil
	}
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < calls; i += callers {
				if err := run(i); err != nil {
					t.Errorf("call %d (width %d): %v", i, width(i), err)
				}
			}
		}()
	}
	wg.Wait()
	waitGroupsReaped(t, app)
	if err := app.Err(); err != nil {
		t.Fatalf("application failed: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for i := 0; i < calls; i++ {
		n := handed[callIDs[i]]
		total += n
		if doomed(i) && n > 0 {
			t.Errorf("canceled call %d handed its buffer array down", i)
		}
	}
	if total == 0 {
		t.Error("no completed group handed its buffer array down")
	}
}
