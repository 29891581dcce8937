package core

import (
	"context"
	"testing"
)

// TestFixedRouteReadsNoCredits: a node routed to a fixed thread (ToThread,
// MainRoute) is resolved from its Route alone. Its calls' entry posts,
// splits' posts to it and merge-thread picks create no credit tracker, and
// an opener's post to such a leaf charges none, so its acknowledgements
// release none: after calls through a graph of fixed routes only, no
// runtime has a tracker. A LoadBalanced leaf in the same shape still gets
// its tracker on the split's node, and every charge is released.
func TestFixedRouteReadsNoCredits(t *testing.T) {
	app, err := NewLocalApp(Config{}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	main, work := MustCollection[struct{}](app, "fixed-main"), MustCollection[struct{}](app, "fixed-work")
	if err := main.Map("a"); err != nil {
		t.Fatal(err)
	}
	if err := work.Map("b c"); err != nil {
		t.Fatal(err)
	}
	fan := func(name string, leafRoute *Route) *Flowgraph {
		g, err := app.NewFlowgraph(name, Path(
			NewNode(Split[*hopTok, *hopTok](name+"-split", func(c *Ctx, in *hopTok, post func(*hopTok)) {
				for i := 0; i < in.N; i++ {
					post(&hopTok{N: i})
				}
			}), main, MainRoute()),
			NewNode(Leaf[*hopTok, *hopTok](name+"-leaf", func(c *Ctx, in *hopTok) *hopTok { return in }), work, leafRoute),
			NewNode(Merge[*hopTok, *hopTok](name+"-merge", func(c *Ctx, first *hopTok, next func() (*hopTok, bool)) *hopTok {
				n := 1
				for _, ok := next(); ok; _, ok = next() {
					n++
				}
				return &hopTok{N: n}
			}), main, MainRoute()),
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if out, err := g.Call(context.Background(), &hopTok{N: 8}); err != nil || out.(*hopTok).N != 8 {
				t.Fatalf("%s: call returned %v, %v", name, out, err)
			}
		}
		return g
	}
	trackers := func() map[string][]creditKey {
		got := make(map[string][]creditKey)
		for name, rt := range app.runtimes.load() {
			for key := range rt.credits.load() {
				got[name] = append(got[name], key)
			}
		}
		return got
	}

	fan("fixed", ToThread(1))
	if got := trackers(); len(got) != 0 {
		t.Fatalf("fixed routes made credit trackers %v, want none", got)
	}
	if app.Stats().AcksSent == 0 {
		t.Fatal("no acknowledgement was sent")
	}

	lb := fan("balanced", LoadBalanced())
	want := creditKey{graph: lb.id, node: 1}
	if got := trackers(); len(got) != 1 || len(got["a"]) != 1 || got["a"][0] != want {
		t.Fatalf("credit trackers %v, want only the LoadBalanced leaf's (%v) on the split's node", got, want)
	}
	waitGroupsReaped(t, app) // every charge released
}
