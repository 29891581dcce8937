package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// helpers building small op sets for validation tests.
func valOps() (split, leaf, merge, stream *core.OpDef) {
	split = core.Split[*CountToken, *CountToken]("vsplit",
		func(c *core.Ctx, in *CountToken, post func(*CountToken)) { post(in) })
	leaf = core.Leaf[*CountToken, *CountToken]("vleaf",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	merge = core.Merge[*CountToken, *CountToken]("vmerge",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool)) *CountToken {
			for _, ok := first, true; ok; _, ok = next() {
			}
			return first
		})
	stream = core.Stream[*CountToken, *CountToken]("vstream",
		func(c *core.Ctx, first *CountToken, next func() (*CountToken, bool), post func(*CountToken)) {
			for in, ok := first, true; ok; in, ok = next() {
				post(in)
			}
		})
	return
}

func valApp(t *testing.T) (*core.App, *core.ThreadCollection) {
	t.Helper()
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("node0"); err != nil {
		t.Fatal(err)
	}
	return app, tc
}

func expectBuildError(t *testing.T, app *core.App, name string, b *core.PathBuilder, wantSub string) {
	t.Helper()
	_, err := app.NewFlowgraph(name, b)
	if err == nil {
		t.Fatalf("graph %q: expected validation error containing %q", name, wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("graph %q: error %q does not contain %q", name, err, wantSub)
	}
}

func TestValidateUnbalancedMergeWithoutSplit(t *testing.T) {
	app, tc := valApp(t)
	_, leaf, merge, _ := valOps()
	expectBuildError(t, app, "g", core.Path(
		core.NewNode(leaf, tc, core.MainRoute()),
		core.NewNode(merge, tc, core.MainRoute()),
	), "no enclosing split")
}

func TestValidateUnmatchedSplit(t *testing.T) {
	app, tc := valApp(t)
	split, leaf, _, _ := valOps()
	expectBuildError(t, app, "g", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(leaf, tc, core.MainRoute()),
	), "unmatched split")
}

func TestValidateTypeMismatch(t *testing.T) {
	app, tc := valApp(t)
	emitA := core.Leaf[*CountToken, *AToken]("emitA",
		func(c *core.Ctx, in *CountToken) *AToken { return &AToken{} })
	wantB := core.Leaf[*BToken, *BToken]("wantB",
		func(c *core.Ctx, in *BToken) *BToken { return in })
	expectBuildError(t, app, "g", core.Path(
		core.NewNode(emitA, tc, core.MainRoute()),
		core.NewNode(wantB, tc, core.MainRoute()),
	), "no successor accepts")
}

func TestValidateAmbiguousPaths(t *testing.T) {
	app, tc := valApp(t)
	split, leaf, merge, _ := valOps()
	leaf2 := core.Leaf[*CountToken, *CountToken]("vleaf2",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	nodeS := core.NewNode(split, tc, core.MainRoute())
	nodeM := core.NewNode(merge, tc, core.MainRoute())
	b := core.Path(nodeS, core.NewNode(leaf, tc, core.MainRoute()), nodeM).
		Add(nodeS, core.NewNode(leaf2, tc, core.MainRoute()), nodeM)
	expectBuildError(t, app, "g", b, "ambiguous")
}

func TestValidateNoPaths(t *testing.T) {
	app, _ := valApp(t)
	expectBuildError(t, app, "g", &core.PathBuilder{}, "no paths")
}

func TestValidateEmptyPath(t *testing.T) {
	app, _ := valApp(t)
	expectBuildError(t, app, "g", core.Path(), "empty path")
}

func TestValidateNilNode(t *testing.T) {
	app, _ := valApp(t)
	expectBuildError(t, app, "g", core.Path(nil), "nil node")
}

func TestValidateMultipleEntries(t *testing.T) {
	// Two separate sources feeding one sink: both leafA and leafB have no
	// predecessors.
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	leafB := core.Leaf[*CountToken, *CountToken]("vleafB",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	final := core.Leaf[*CountToken, *CountToken]("vfinal",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	nf := core.NewNode(final, tc, core.MainRoute())
	b := core.Path(core.NewNode(leaf, tc, core.MainRoute()), nf).
		Add(core.NewNode(leafB, tc, core.MainRoute()), nf)
	expectBuildError(t, app, "g", b, "multiple entry nodes")
}

func TestValidateMultipleExits(t *testing.T) {
	// One source fanning out to two sinks. Both exits accept the same
	// token type, so the ambiguity check would also fire; distinct input
	// types keep the fan-out unambiguous and isolate the exit check.
	app, tc := valApp(t)
	splitAB := core.SplitAny[*CountToken]("vsplitAB",
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		func(c *core.Ctx, in *CountToken, post func(core.Token)) { post(&AToken{}) })
	sinkA := core.Leaf[*AToken, *AToken]("vsinkA",
		func(c *core.Ctx, in *AToken) *AToken { return in })
	sinkB := core.Leaf[*BToken, *BToken]("vsinkB",
		func(c *core.Ctx, in *BToken) *BToken { return in })
	src := core.NewNode(splitAB, tc, core.MainRoute())
	b := core.Path(src, core.NewNode(sinkA, tc, core.MainRoute())).
		Add(src, core.NewNode(sinkB, tc, core.MainRoute()))
	expectBuildError(t, app, "g", b, "multiple exit nodes")
}

func TestValidateNoEntryFullCycle(t *testing.T) {
	// Every node sits on the cycle: there is no node without predecessors.
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	leaf2 := core.Leaf[*CountToken, *CountToken]("vleaf2",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	n1 := core.NewNode(leaf, tc, core.MainRoute())
	n2 := core.NewNode(leaf2, tc, core.MainRoute())
	b := core.Path(n1, n2).Add(n2, n1)
	expectBuildError(t, app, "g", b, "no entry node")
}

func TestValidateNoExitCycle(t *testing.T) {
	// An entry exists but every reachable node feeds the cycle: no exit.
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	leaf2 := core.Leaf[*CountToken, *CountToken]("vleaf2",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	leaf3 := core.Leaf[*CountToken, *CountToken]("vleaf3",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	n1 := core.NewNode(leaf, tc, core.MainRoute())
	n2 := core.NewNode(leaf2, tc, core.MainRoute())
	n3 := core.NewNode(leaf3, tc, core.MainRoute())
	b := core.Path(n1, n2, n3).Add(n3, n2)
	expectBuildError(t, app, "g", b, "no exit node")
}

func TestValidateUnbalancedDepths(t *testing.T) {
	// The merge is reachable both inside the split's group (depth 1) and
	// directly from the entry (depth 0): the paths are unbalanced.
	app, tc := valApp(t)
	split, leaf, merge, _ := valOps()
	entry := core.NewNode(leaf, tc, core.MainRoute())
	ns := core.NewNode(split, tc, core.MainRoute())
	nm := core.NewNode(merge, tc, core.MainRoute())
	b := core.Path(entry, ns, nm).Add(entry, nm)
	// The direct entry->merge edge and the split->merge edge give the
	// merge two different split depths. (The ambiguity check on entry's
	// successors fires for the same wiring; accept either diagnostic
	// naming the structural problem.)
	_, err := app.NewFlowgraph("g", b)
	if err == nil {
		t.Fatal("expected validation error for unbalanced paths")
	}
	if !strings.Contains(err.Error(), "unbalanced") && !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("error %q names neither unbalanced paths nor ambiguity", err)
	}
}

func TestValidateUnbalancedDepthsDistinctTypes(t *testing.T) {
	// Same structure with distinct token types on the two paths, so the
	// ambiguity check cannot fire and the depth check is isolated: the
	// sink is reachable at depth 1 (through the split) and depth 0.
	app, tc := valApp(t)
	fanAB := core.SplitAny[*CountToken]("vfanAB",
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		func(c *core.Ctx, in *CountToken, post func(core.Token)) { post(&AToken{}) })
	aToB := core.Leaf[*AToken, *BToken]("vaToB",
		func(c *core.Ctx, in *AToken) *BToken { return &BToken{} })
	sinkB := core.MergeAny("vsinkB", []core.Token{(*BToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, first core.Token, next func() (core.Token, bool)) core.Token {
			for _, ok := next(); ok; _, ok = next() {
			}
			return &CountToken{}
		})
	nf := core.NewNode(fanAB, tc, core.MainRoute())
	na := core.NewNode(aToB, tc, core.MainRoute())
	nb := core.NewNode(sinkB, tc, core.MainRoute())
	// A-path: fan -> aToB (inside the group, depth 1) -> sinkB.
	// B-path: fan -> sinkB directly (depth 1)... both depth 1; to get the
	// imbalance, chain a second split on one path only.
	split2 := core.Split[*BToken, *BToken]("vsplit2",
		func(c *core.Ctx, in *BToken, post func(*BToken)) { post(in) })
	n2 := core.NewNode(split2, tc, core.MainRoute())
	b := core.Path(nf, na, n2, nb).Add(nf, nb)
	expectBuildError(t, app, "g", b, "unbalanced")
}

func TestValidateGroupClosesTwice(t *testing.T) {
	// The split's group reaches two different merges at the same depth:
	// the closer is ambiguous.
	app, tc := valApp(t)
	fanAB := core.SplitAny[*CountToken]("vfanAB",
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		func(c *core.Ctx, in *CountToken, post func(core.Token)) { post(&AToken{}) })
	mergeA := core.MergeAny("vmergeA", []core.Token{(*AToken)(nil)}, []core.Token{(*AToken)(nil)},
		func(c *core.Ctx, first core.Token, next func() (core.Token, bool)) core.Token {
			for _, ok := next(); ok; _, ok = next() {
			}
			return &AToken{}
		})
	mergeB := core.MergeAny("vmergeB", []core.Token{(*BToken)(nil)}, []core.Token{(*BToken)(nil)},
		func(c *core.Ctx, first core.Token, next func() (core.Token, bool)) core.Token {
			for _, ok := next(); ok; _, ok = next() {
			}
			return &BToken{}
		})
	join := core.LeafAny("vjoin", []core.Token{(*AToken)(nil), (*BToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) { post(&CountToken{}) })
	nf := core.NewNode(fanAB, tc, core.MainRoute())
	na := core.NewNode(mergeA, tc, core.MainRoute())
	nb := core.NewNode(mergeB, tc, core.MainRoute())
	nj := core.NewNode(join, tc, core.MainRoute())
	b := core.Path(nf, na, nj).Add(nf, nb, nj)
	expectBuildError(t, app, "g", b, "closes at both")
}

func TestValidateSplitAsExit(t *testing.T) {
	// A split whose output feeds nothing leaves an unmatched group; the
	// depth check reports it before the exit-kind check can.
	app, tc := valApp(t)
	split, _, _, _ := valOps()
	expectBuildError(t, app, "g", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
	), "unmatched split")
}

func TestValidateIncompatibleEdge(t *testing.T) {
	// Every output type of the source is routed somewhere, but one edge
	// accepts none of them: the edge itself is incompatible.
	app, tc := valApp(t)
	srcAB := core.LeafAny("vsrcAB",
		[]core.Token{(*CountToken)(nil)},
		[]core.Token{(*AToken)(nil), (*BToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) { post(&AToken{}) })
	sinkA := core.LeafAny("vsinkA2", []core.Token{(*AToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) { post(&CountToken{}) })
	sinkB := core.LeafAny("vsinkB2", []core.Token{(*BToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) { post(&CountToken{}) })
	// wantC accepts a type the source never emits.
	wantC := core.Leaf[*SumToken, *SumToken]("vwantC",
		func(c *core.Ctx, in *SumToken) *SumToken { return in })
	join := core.LeafAny("vjoin2",
		[]core.Token{(*CountToken)(nil), (*SumToken)(nil)}, []core.Token{(*CountToken)(nil)},
		func(c *core.Ctx, in core.Token, post func(core.Token)) { post(&CountToken{}) })
	ns := core.NewNode(srcAB, tc, core.MainRoute())
	nj := core.NewNode(join, tc, core.MainRoute())
	b := core.Path(ns, core.NewNode(sinkA, tc, core.MainRoute()), nj).
		Add(ns, core.NewNode(sinkB, tc, core.MainRoute()), nj).
		Add(ns, core.NewNode(wantC, tc, core.MainRoute()), nj)
	expectBuildError(t, app, "g", b, "incompatible edge")
}

func TestValidateCycle(t *testing.T) {
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	leaf2 := core.Leaf[*CountToken, *CountToken]("vleaf2",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	n1 := core.NewNode(leaf, tc, core.MainRoute())
	n2 := core.NewNode(leaf2, tc, core.MainRoute())
	b := core.Path(n1, n2).Add(n2, n1)
	if _, err := app.NewFlowgraph("g", b); err == nil {
		t.Fatal("expected cycle detection error")
	}
}

func TestValidateSelfLoop(t *testing.T) {
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	n := core.NewNode(leaf, tc, core.MainRoute())
	expectBuildError(t, app, "g", core.Path(n, n), "self-loop")
}

func TestValidateStreamAsExit(t *testing.T) {
	app, tc := valApp(t)
	split, _, _, stream := valOps()
	expectBuildError(t, app, "g", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(stream, tc, core.MainRoute()),
	), "exit")
}

func TestValidateNodeReuseAcrossGraphs(t *testing.T) {
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	n := core.NewNode(leaf, tc, core.MainRoute())
	if _, err := app.NewFlowgraph("g1", core.Path(n)); err != nil {
		t.Fatal(err)
	}
	expectBuildError(t, app, "g2", core.Path(n), "already belongs")
}

func TestValidateDuplicateGraphName(t *testing.T) {
	app, tc := valApp(t)
	_, leaf, _, _ := valOps()
	if _, err := app.NewFlowgraph("dup", core.Path(core.NewNode(leaf, tc, core.MainRoute()))); err != nil {
		t.Fatal(err)
	}
	leaf2 := core.Leaf[*CountToken, *CountToken]("vleaf2",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	expectBuildError(t, app, "dup", core.Path(core.NewNode(leaf2, tc, core.MainRoute())), "already exists")
}

func TestSingleLeafGraph(t *testing.T) {
	app, tc := valApp(t)
	leaf := core.Leaf[*CountToken, *CountToken]("inc",
		func(c *core.Ctx, in *CountToken) *CountToken { return &CountToken{N: in.N + 1} })
	g, err := app.NewFlowgraph("single", core.Path(core.NewNode(leaf, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callWithin(g, app.MasterNode(), &CountToken{N: 41}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*CountToken).N; got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestDOTExport(t *testing.T) {
	app, tc := valApp(t)
	split, leaf, merge, _ := valOps()
	g, err := app.NewFlowgraph("dot", core.Path(
		core.NewNode(split, tc, core.MainRoute()),
		core.NewNode(leaf, tc, core.RoundRobin()),
		core.NewNode(merge, tc, core.MainRoute()),
	))
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph", "vsplit", "vleaf", "vmerge", "->", "round-robin"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestParseMapping(t *testing.T) {
	cases := []struct {
		spec string
		want []string
		err  bool
	}{
		{"nodeA*2 nodeB", []string{"nodeA", "nodeA", "nodeB"}, false},
		{"a", []string{"a"}, false},
		{"a*1 b*3", []string{"a", "b", "b", "b"}, false},
		{"  a   b  ", []string{"a", "b"}, false},
		{"", nil, true},
		{"a*0", nil, true},
		{"a*x", nil, true},
		{"*3", nil, true},
	}
	for _, tc := range cases {
		got, err := core.ParseMapping(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("ParseMapping(%q): expected error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMapping(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseMapping(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseMapping(%q) = %v, want %v", tc.spec, got, tc.want)
				break
			}
		}
	}
}

func TestMapUnknownNode(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "tc")
	if err := tc.Map("ghost"); err == nil {
		t.Fatal("expected unknown node error")
	}
}

func TestCallUnmappedCollection(t *testing.T) {
	app := newLocalApp(t, core.Config{}, "node0")
	tc := core.MustCollection[struct{}](app, "unmapped")
	leaf := core.Leaf[*CountToken, *CountToken]("id",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	g, err := app.NewFlowgraph("g", core.Path(core.NewNode(leaf, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Call(context.Background(), &CountToken{}); err == nil || !strings.Contains(err.Error(), "not mapped") {
		t.Fatalf("expected not-mapped error, got %v", err)
	}
}

func TestCallWrongTokenType(t *testing.T) {
	app, tc := valApp(t)
	leaf := core.Leaf[*CountToken, *CountToken]("id",
		func(c *core.Ctx, in *CountToken) *CountToken { return in })
	g, err := app.NewFlowgraph("g", core.Path(core.NewNode(leaf, tc, core.MainRoute())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Call(context.Background(), &AToken{}); err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("expected type error, got %v", err)
	}
}
