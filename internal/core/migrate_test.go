package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Tokens and thread state of the migration tests. SeqToken (a sequenced
// payload) is shared with stress_test.go's FIFO tests.
type MigOrder struct {
	N int
}

// SeqToken carries a split-assigned sequence number.
type SeqToken struct {
	Seq int
}

type MigDone struct {
	N          int
	Violations int
	Sum        int64
}

// AccState is the migrating thread's private state: it checks per-instance
// FIFO order (every token must arrive in posting order, across any number
// of live remaps) and accumulates a sum that proves the state object itself
// travelled rather than being recreated.
type AccState struct {
	NextSeq    int
	Sum        int64
	Violations int
	// Trail is the first few violations as (got, want) pairs: what arrived
	// against what was due.
	Trail []int
}

var (
	_ = serial.MustRegister[MigOrder]()
	_ = serial.MustRegister[SeqToken]()
	_ = serial.MustRegister[MigDone]()
	_ = serial.MustRegister[AccState]()
)

// buildSeqGraph builds split(main) -> acc(leaf, stateful, 1 thread) ->
// merge(main): the single acc thread is the migration subject.
func buildSeqGraph(t testing.TB, app *core.App, name, mainNode, accNode string) (*core.Flowgraph, *core.ThreadCollection) {
	t.Helper()
	main := core.MustCollection[struct{}](app, name+"-main")
	if err := main.Map(mainNode); err != nil {
		t.Fatal(err)
	}
	acc := core.MustCollection[AccState](app, name+"-acc")
	if err := acc.Map(accNode); err != nil {
		t.Fatal(err)
	}

	split := core.Split[*MigOrder, *SeqToken](name+"-split",
		func(c *core.Ctx, in *MigOrder, post func(*SeqToken)) {
			for i := 0; i < in.N; i++ {
				post(&SeqToken{Seq: i})
			}
		})
	accOp := core.Leaf[*SeqToken, *SeqToken](name+"-acc",
		func(c *core.Ctx, in *SeqToken) *SeqToken {
			st := core.StateOf[AccState](c)
			if in.Seq != st.NextSeq {
				st.Violations++
				if len(st.Trail) < 16 {
					st.Trail = append(st.Trail, in.Seq, st.NextSeq)
				}
			}
			st.NextSeq = in.Seq + 1
			st.Sum += int64(in.Seq)
			if in.Seq%128 == 127 {
				// Pace the stream so a mid-run test's migrations genuinely
				// interleave with traffic instead of racing a finished call.
				time.Sleep(time.Millisecond)
			}
			return in
		})
	merge := core.Merge[*SeqToken, *MigDone](name+"-merge",
		func(c *core.Ctx, first *SeqToken, next func() (*SeqToken, bool)) *MigDone {
			n := 0
			for _, ok := first, true; ok; _, ok = next() {
				n++
			}
			return &MigDone{N: n}
		})

	g, err := app.NewFlowgraph(name, core.Path(
		core.NewNode(split, main, core.MainRoute()),
		core.NewNode(accOp, acc, core.MainRoute()),
		core.NewNode(merge, main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return g, acc
}

func TestRemapIdleMovesState(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	g, acc := buildSeqGraph(t, app, "remap-idle", "node0", "node1")

	out, err := g.Call(context.Background(), &MigOrder{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if out.(*MigDone).N != 100 {
		t.Fatalf("got %d tokens, want 100", out.(*MigDone).N)
	}
	if got, _ := acc.NodeOf(0); got != "node1" {
		t.Fatalf("acc thread on %q before remap", got)
	}
	epoch := acc.Epoch()

	if err := acc.Remap(context.Background(), "node0"); err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if got, _ := acc.NodeOf(0); got != "node0" {
		t.Fatalf("acc thread on %q after remap, want node0", got)
	}
	if acc.Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, acc.Epoch())
	}

	// The state must have travelled with the thread: the reader runs on
	// node0 now and must see the sum and cursor of the pre-remap call.
	st := readState(t, app, acc)
	if st.NextSeq != 100 || st.Sum != 99*100/2 || st.Violations != 0 {
		t.Fatalf("migrated state = %+v, want NextSeq=100 Sum=4950 Violations=0", st)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("app failed: %v", err)
	}
	if s := app.Stats(); s.MigrationsCompleted != 1 || s.MigrationBytes == 0 {
		t.Fatalf("stats: migrations=%d bytes=%d, want 1 and >0", s.MigrationsCompleted, s.MigrationBytes)
	}
}

// TestRemapMidRun is the live-migration regression: a long call streams
// sequenced tokens through a stateful single-thread collection while the
// test remaps it back and forth between nodes. The call must not fail, the
// result must match the unmigrated run, and the thread must observe every
// token exactly once in posting order (per-instance FIFO preserved through
// holds, forwards and fences).
func TestRemapMidRun(t *testing.T) {
	variants := []struct {
		name string
		mk   func(t *testing.T) *core.App
	}{
		{"local", func(t *testing.T) *core.App {
			return newLocalApp(t, core.Config{Window: 64}, "node0", "node1", "node2")
		}},
		{"forceSerialize", func(t *testing.T) *core.App {
			return newLocalApp(t, core.Config{Window: 64, ForceSerialize: true}, "node0", "node1", "node2")
		}},
		{"simnet", func(t *testing.T) *core.App {
			// Modelled latency makes the fabric genuinely asynchronous: stale
			// tokens stay in flight long after the placement flip, the
			// hardest case for the fence handshake.
			net := simnet.New(simnet.GigabitEthernet())
			t.Cleanup(net.Close)
			trs, err := transport.SimNodes(net, "node0", "node1", "node2")
			if err != nil {
				t.Fatal(err)
			}
			app, err := core.NewAppOn(core.Config{Window: 64}, trs...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(app.Close)
			return app
		}},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			const tokens = 4000
			app := variant.mk(t)
			g, acc := buildSeqGraph(t, app, "remap-midrun", "node0", "node1")

			stop := make(chan struct{})
			done := make(chan struct{})
			var remaps atomic.Int64
			var forwarded []int64 // TokensForwarded after each remap
			go func() {
				defer close(done)
				targets := []string{"node2", "node0", "node1"}
				for i := 0; ; i++ {
					select {
					case <-time.After(500 * time.Microsecond):
					case <-stop:
						return
					}
					if app.Err() != nil {
						return
					}
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					err := acc.Remap(ctx, targets[i%len(targets)])
					cancel()
					if err != nil {
						return
					}
					forwarded = append(forwarded, app.Stats().TokensForwarded)
					if remaps.Add(1) >= 30 {
						return // enough churn; let the call finish at full speed
					}
				}
			}()

			out, err := g.Call(context.Background(), &MigOrder{N: tokens})
			close(stop)
			<-done
			if err != nil {
				t.Fatalf("call failed across remap: %v", err)
			}
			if got := out.(*MigDone).N; got != tokens {
				t.Fatalf("merge saw %d tokens, want %d", got, tokens)
			}
			if err := app.Err(); err != nil {
				t.Fatalf("app failed: %v", err)
			}

			// Inspect the carried state: exactly `tokens` consumed, in order,
			// across every migration.
			st := readState(t, app, acc)
			if st.Violations != 0 {
				t.Fatalf("%d FIFO violations across remaps; first (got, want) pairs: %v; tokens forwarded by the end of each remap (what its hold and relay carried): %v",
					st.Violations, st.Trail, forwarded)
			}
			if st.NextSeq != tokens {
				t.Fatalf("state cursor %d, want %d (tokens lost or duplicated)", st.NextSeq, tokens)
			}
			wantSum := int64(tokens) * int64(tokens-1) / 2
			if st.Sum != wantSum {
				t.Fatalf("state sum %d, want %d (state lost or duplicated)", st.Sum, wantSum)
			}
			if remaps.Load() == 0 {
				t.Fatal("no migration completed mid-run; the test exercised nothing")
			}
			t.Logf("completed with %d live remaps, forwarded=%d", remaps.Load(), app.Stats().TokensForwarded)
		})
	}
}

// readState reads the acc thread's state wherever it currently lives,
// through a reader graph registered on the same collection (one more graph
// call that executes on the thread and copies its state out).
func readState(t *testing.T, app *core.App, acc *core.ThreadCollection) *AccState {
	t.Helper()
	readG := buildStateReader(t, app, acc)
	if _, err := readG.Call(context.Background(), &MigOrder{N: 0}); err != nil {
		t.Fatalf("state read: %v", err)
	}
	return lastReadState.Load().(*AccState)
}

var lastReadState atomic.Value

var readerSeq atomic.Int64

// buildStateReader registers a tiny leaf graph on the acc collection that
// copies the thread state out for assertions.
func buildStateReader(t *testing.T, app *core.App, acc *core.ThreadCollection) *core.Flowgraph {
	t.Helper()
	n := readerSeq.Add(1)
	main := core.MustCollection[struct{}](app, fmt.Sprintf("reader-main-%d", n))
	if err := main.Map(app.MasterNode()); err != nil {
		t.Fatal(err)
	}
	read := core.Leaf[*MigOrder, *MigDone](fmt.Sprintf("reader-%d", n),
		func(c *core.Ctx, in *MigOrder) *MigDone {
			st := core.StateOf[AccState](c)
			cp := *st
			lastReadState.Store(&cp)
			return &MigDone{N: in.N, Violations: st.Violations, Sum: st.Sum}
		})
	g, err := app.NewFlowgraph(fmt.Sprintf("reader-%d", n), core.Path(
		core.NewNode(core.Leaf[*MigOrder, *MigOrder](fmt.Sprintf("reader-in-%d", n),
			func(c *core.Ctx, in *MigOrder) *MigOrder { return in }), main, core.MainRoute()),
		core.NewNode(read, acc, core.MainRoute()),
		core.NewNode(core.Leaf[*MigDone, *MigDone](fmt.Sprintf("reader-out-%d", n),
			func(c *core.Ctx, in *MigDone) *MigDone { return in }), main, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMapRejectedWhileExecuting(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	main := core.MustCollection[struct{}](app, "busy-main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	work := core.MustCollection[struct{}](app, "busy-work")
	if err := work.Map("node1"); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := core.Leaf[*MigOrder, *MigDone]("busy-slow",
		func(c *core.Ctx, in *MigOrder) *MigDone {
			<-release
			return &MigDone{N: in.N}
		})
	g, err := app.NewFlowgraph("busy", core.Path(
		core.NewNode(core.Leaf[*MigOrder, *MigOrder]("busy-in",
			func(c *core.Ctx, in *MigOrder) *MigOrder { return in }), main, core.MainRoute()),
		core.NewNode(slow, work, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := g.CallAsync(context.Background(), &MigOrder{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the call is registered and executing, then try to remap.
	time.Sleep(10 * time.Millisecond)
	if err := work.MapNodes("node0"); err == nil {
		t.Fatal("MapNodes during execution succeeded; want rejection")
	} else if !strings.Contains(err.Error(), "Remap") {
		t.Fatalf("rejection should point at Remap, got: %v", err)
	}
	if err := work.Map("node0"); err == nil {
		t.Fatal("Map during execution succeeded; want rejection")
	}
	close(release)
	if res := <-ch; res.Err != nil {
		t.Fatalf("call failed: %v", res.Err)
	}
	// Idle again: replacing the mapping is allowed.
	if err := work.MapNodes("node0"); err != nil {
		t.Fatalf("MapNodes while idle: %v", err)
	}
}

type hiddenState struct {
	Public int
	secret int //nolint:unused // exercises the unexported-field rejection
}

func TestRemapRejectsUnmigratableState(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")

	hidden := core.MustCollection[hiddenState](app, "unmig-hidden")
	if err := hidden.Map("node0"); err != nil {
		t.Fatal(err)
	}
	err := hidden.Remap(context.Background(), "node1")
	if err == nil || !strings.Contains(err.Error(), "unexported") {
		t.Fatalf("want unexported-field rejection, got: %v", err)
	}

	type unregisteredState struct{ X int }
	unreg := core.MustCollection[unregisteredState](app, "unmig-unreg")
	if err := unreg.Map("node0"); err != nil {
		t.Fatal(err)
	}
	err = unreg.Remap(context.Background(), "node1")
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("want unregistered-type rejection, got: %v", err)
	}

	// The failed validations must not have flipped anything.
	if got, _ := hidden.NodeOf(0); got != "node0" {
		t.Fatalf("placement changed on failed remap: %q", got)
	}
}

func TestRemapQuiesceTimeout(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1", "node2")
	main := core.MustCollection[struct{}](app, "qt-main")
	if err := main.Map("node0"); err != nil {
		t.Fatal(err)
	}
	work := core.MustCollection[struct{}](app, "qt-work")
	if err := work.Map("node1"); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := core.Leaf[*MigOrder, *MigDone]("qt-slow",
		func(c *core.Ctx, in *MigOrder) *MigDone {
			started <- struct{}{}
			<-release
			return &MigDone{N: in.N}
		})
	g, err := app.NewFlowgraph("qt", core.Path(
		core.NewNode(core.Leaf[*MigOrder, *MigOrder]("qt-in",
			func(c *core.Ctx, in *MigOrder) *MigOrder { return in }), main, core.MainRoute()),
		core.NewNode(slow, work, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := g.CallAsync(context.Background(), &MigOrder{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rerr := work.Remap(ctx, "node2")
	if rerr == nil {
		t.Fatal("Remap of a busy thread with a short deadline succeeded; want timeout")
	}
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got: %v", rerr)
	}
	if got, _ := work.NodeOf(0); got != "node1" {
		t.Fatalf("placement changed on aborted remap: %q", got)
	}

	close(release)
	if res := <-ch; res.Err != nil {
		t.Fatalf("call failed after aborted remap: %v", res.Err)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("app failed: %v", err)
	}

	// The rollback must leave the thread fully operational, including a
	// subsequent successful migration.
	if err := work.Remap(context.Background(), "node2"); err != nil {
		t.Fatalf("remap after rollback: %v", err)
	}
	out, err := g.Call(context.Background(), &MigOrder{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.(*MigDone).N != 2 {
		t.Fatalf("bad result after migration: %+v", out)
	}
}

func TestRemapRejectsNonStructState(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0", "node1")
	ints := core.MustCollection[int](app, "unmig-int")
	if err := ints.Map("node0"); err != nil {
		t.Fatal(err)
	}
	err := ints.Remap(context.Background(), "node1")
	if err == nil || !strings.Contains(err.Error(), "not a struct") {
		t.Fatalf("want non-struct rejection, got: %v", err)
	}
	if got, _ := ints.NodeOf(0); got != "node0" {
		t.Fatalf("placement changed on failed remap: %q", got)
	}
}
