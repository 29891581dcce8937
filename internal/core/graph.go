package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// GraphNode binds an operation to the thread collection that executes it
// and the routing function that selects the thread instance — the analogue
// of the paper's FlowgraphNode<Operation, Route>(threadCollection).
//
// A GraphNode belongs to at most one Flowgraph.
type GraphNode struct {
	op    *OpDef
	tc    *ThreadCollection
	route *Route

	graph *Flowgraph
	id    int
}

// NewNode creates a graph node executing op on collection tc, with tokens
// routed by route.
func NewNode(op *OpDef, tc *ThreadCollection, route *Route) *GraphNode {
	return &GraphNode{op: op, tc: tc, route: route, id: -1}
}

// Collection returns the node's thread collection.
func (n *GraphNode) Collection() *ThreadCollection { return n.tc }

// PathBuilder accumulates paths of a flow graph under construction. Path
// plays the role of the paper's >> operator chain, Add of the += operator
// that contributes an additional path to the same builder.
type PathBuilder struct {
	paths [][]*GraphNode
}

// Path starts a builder with one path through the listed nodes, in order.
func Path(nodes ...*GraphNode) *PathBuilder {
	b := &PathBuilder{}
	return b.Add(nodes...)
}

// Add contributes another path (the paper's += operator). Nodes shared with
// existing paths create joins and forks.
func (b *PathBuilder) Add(nodes ...*GraphNode) *PathBuilder {
	b.paths = append(b.paths, append([]*GraphNode(nil), nodes...))
	return b
}

// Flowgraph is a validated directed acyclic graph of operations, ready to
// execute. Flowgraphs are named so applications can expose them as parallel
// services callable by other applications.
type Flowgraph struct {
	app  *App
	name string
	id   uint64 // the id the graph is declared under (App.declareLocked)

	nodes    []*GraphNode
	succ     [][]int
	pred     [][]int
	inDepth  []int // frame-stack depth of tokens entering each node
	closerOf map[int]int
	entry    int
	exit     int
}

// Name returns the graph's registered name.
func (g *Flowgraph) Name() string { return g.name }

// NodeCount returns the number of operation nodes.
func (g *Flowgraph) NodeCount() int { return len(g.nodes) }

// App returns the application the graph is registered on.
func (g *Flowgraph) App() *App { return g.app }

// EntryOp returns the operation of the graph's unique entry node.
func (g *Flowgraph) EntryOp() *OpDef { return g.nodes[g.entry].op }

// ExitOp returns the operation of the graph's unique exit node.
func (g *Flowgraph) ExitOp() *OpDef { return g.nodes[g.exit].op }

// NewFlowgraph validates the builder's paths and registers the graph under
// the given name. Validation reproduces the paper's compile-time coherence
// checks: token-type compatibility along every edge, unambiguous type-based
// path selection, and split/merge balance on every path.
func (app *App) NewFlowgraph(name string, b *PathBuilder) (*Flowgraph, error) {
	if len(b.paths) == 0 {
		return nil, fmt.Errorf("dps: graph %q: no paths", name)
	}
	g := &Flowgraph{app: app, name: name, closerOf: make(map[int]int)}

	// Collect nodes in first-seen order, assign ids, build edge set.
	seen := make(map[*GraphNode]int)
	edges := make(map[[2]int]bool)
	idOf := func(n *GraphNode) (int, error) {
		if n == nil {
			return 0, fmt.Errorf("dps: graph %q: nil node in path", name)
		}
		if id, ok := seen[n]; ok {
			return id, nil
		}
		if n.graph != nil {
			return 0, fmt.Errorf("dps: graph %q: node %q already belongs to graph %q", name, n.op.name, n.graph.name)
		}
		if n.op == nil || n.tc == nil || n.route == nil {
			return 0, fmt.Errorf("dps: graph %q: node missing operation, collection or route", name)
		}
		id := len(g.nodes)
		seen[n] = id
		g.nodes = append(g.nodes, n)
		return id, nil
	}
	for _, p := range b.paths {
		if len(p) == 0 {
			return nil, fmt.Errorf("dps: graph %q: empty path", name)
		}
		prev := -1
		for _, n := range p {
			id, err := idOf(n)
			if err != nil {
				return nil, err
			}
			if prev >= 0 {
				if prev == id {
					return nil, fmt.Errorf("dps: graph %q: self-loop on %q", name, n.op.name)
				}
				edges[[2]int{prev, id}] = true
			}
			prev = id
		}
	}
	n := len(g.nodes)
	g.succ = make([][]int, n)
	g.pred = make([][]int, n)
	var edgeList [][2]int
	for e := range edges {
		edgeList = append(edgeList, e)
	}
	sort.Slice(edgeList, func(i, j int) bool {
		if edgeList[i][0] != edgeList[j][0] {
			return edgeList[i][0] < edgeList[j][0]
		}
		return edgeList[i][1] < edgeList[j][1]
	})
	for _, e := range edgeList {
		g.succ[e[0]] = append(g.succ[e[0]], e[1])
		g.pred[e[1]] = append(g.pred[e[1]], e[0])
	}

	if err := g.validate(); err != nil {
		return nil, err
	}
	if err := app.addGraph(g); err != nil {
		return nil, err
	}
	for id, node := range g.nodes {
		node.graph = g
		node.id = id
	}
	return g, nil
}

func (g *Flowgraph) validate() error {
	n := len(g.nodes)

	// Unique entry and exit.
	entry, exit := -1, -1
	for i := 0; i < n; i++ {
		if len(g.pred[i]) == 0 {
			if entry >= 0 {
				return g.errf("multiple entry nodes (%q and %q)", g.opName(entry), g.opName(i))
			}
			entry = i
		}
		if len(g.succ[i]) == 0 {
			if exit >= 0 {
				return g.errf("multiple exit nodes (%q and %q)", g.opName(exit), g.opName(i))
			}
			exit = i
		}
	}
	if entry < 0 {
		return g.errf("no entry node (graph has a cycle)")
	}
	if exit < 0 {
		return g.errf("no exit node (graph has a cycle)")
	}
	g.entry, g.exit = entry, exit

	// Topological order (also detects cycles and unreachable nodes).
	order, err := g.topoOrder()
	if err != nil {
		return err
	}

	// Edge type compatibility and per-out-type routing ambiguity.
	for i := 0; i < n; i++ {
		node := g.nodes[i]
		for _, outT := range node.op.outTypes {
			accepting := 0
			for _, s := range g.succ[i] {
				if g.nodes[s].op.acceptsIn(outT) {
					accepting++
				}
			}
			if len(g.succ[i]) > 0 && accepting == 0 {
				return g.errf("operation %q may emit %s but no successor accepts it", node.op.name, outT)
			}
			if accepting > 1 {
				return g.errf("operation %q output type %s is accepted by %d successors; type-based path selection is ambiguous", node.op.name, outT, accepting)
			}
		}
		for _, s := range g.succ[i] {
			if !g.edgeCompatible(i, s) {
				return g.errf("incompatible edge %q -> %q: no output type of the former is accepted by the latter", node.op.name, g.opName(s))
			}
		}
	}

	// Frame-depth balance along every path.
	g.inDepth = make([]int, n)
	for i := range g.inDepth {
		g.inDepth[i] = -1
	}
	g.inDepth[entry] = 0
	for _, i := range order {
		if g.inDepth[i] < 0 {
			return g.errf("node %q unreachable from entry", g.opName(i))
		}
		d := g.inDepth[i]
		if (g.nodes[i].op.kind == KindMerge || g.nodes[i].op.kind == KindStream) && d < 1 {
			return g.errf("%s %q has no enclosing split", g.nodes[i].op.kind, g.opName(i))
		}
		out := d + depthDelta(g.nodes[i].op.kind)
		for _, s := range g.succ[i] {
			if g.inDepth[s] < 0 {
				g.inDepth[s] = out
			} else if g.inDepth[s] != out {
				return g.errf("node %q reachable at split depths %d and %d; paths are unbalanced", g.opName(s), g.inDepth[s], out)
			}
		}
	}
	exitOut := g.inDepth[exit] + depthDelta(g.nodes[exit].op.kind)
	if exitOut != 0 {
		return g.errf("exit %q leaves %d unmatched split level(s)", g.opName(exit), exitOut)
	}
	switch g.nodes[exit].op.kind {
	case KindSplit, KindStream:
		return g.errf("exit %q must be a leaf or merge so each call yields exactly one result", g.opName(exit))
	}

	// Match each group opener (split, stream) with its unique closer.
	for i := 0; i < n; i++ {
		k := g.nodes[i].op.kind
		if k != KindSplit && k != KindStream {
			continue
		}
		closer, err := g.findCloser(i)
		if err != nil {
			return err
		}
		g.closerOf[i] = closer
	}
	return nil
}

func depthDelta(k OpKind) int {
	switch k {
	case KindSplit:
		return 1
	case KindMerge:
		return -1
	default: // leaf keeps depth; stream pops then pushes
		return 0
	}
}

// findCloser locates the merge/stream that closes the group opened by
// opener, verifying uniqueness across all paths.
func (g *Flowgraph) findCloser(opener int) (int, error) {
	d := g.inDepth[opener] + depthDelta(g.nodes[opener].op.kind)
	if g.nodes[opener].op.kind == KindStream {
		d = g.inDepth[opener] // stream's new group sits at its own input depth
	}
	closer := -1
	visited := make([]bool, len(g.nodes))
	var dfs func(i int) error
	dfs = func(i int) error {
		if visited[i] {
			return nil
		}
		visited[i] = true
		k := g.nodes[i].op.kind
		if (k == KindMerge || k == KindStream) && g.inDepth[i] == d {
			if closer >= 0 && closer != i {
				return g.errf("group opened by %q closes at both %q and %q", g.opName(opener), g.opName(closer), g.opName(i))
			}
			closer = i
			return nil
		}
		for _, s := range g.succ[i] {
			if err := dfs(s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range g.succ[opener] {
		if err := dfs(s); err != nil {
			return 0, err
		}
	}
	if closer < 0 {
		return 0, g.errf("group opened by %q is never merged", g.opName(opener))
	}
	return closer, nil
}

func (g *Flowgraph) topoOrder() ([]int, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.pred[i])
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, s := range g.succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, g.errf("graph contains a cycle")
	}
	return order, nil
}

func (g *Flowgraph) edgeCompatible(a, b int) bool {
	for _, outT := range g.nodes[a].op.outTypes {
		if g.nodes[b].op.acceptsIn(outT) {
			return true
		}
	}
	return false
}

// successorFor picks the unique successor of node accepting a token of
// struct type t (type-based conditional path selection, paper Figure 3).
func (g *Flowgraph) successorFor(node int, t reflect.Type) (int, error) {
	for _, s := range g.succ[node] {
		if g.nodes[s].op.acceptsIn(t) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("dps: graph %q: no successor of %q accepts token type %s", g.name, g.opName(node), t)
}

func (g *Flowgraph) opName(i int) string { return g.nodes[i].op.name }

func (g *Flowgraph) errf(format string, args ...any) error {
	return fmt.Errorf("dps: graph %q: "+format, append([]any{g.name}, args...)...)
}

// DOT renders the flow graph in Graphviz format; the paper stresses that
// flow graphs "can be easily visualized" as a design aid.
func (g *Flowgraph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph \"%s\" {\n  rankdir=LR;\n", dotEscape(g.name))
	for i, n := range g.nodes {
		shape := "box"
		switch n.op.kind {
		case KindSplit:
			shape = "triangle"
		case KindMerge:
			shape = "invtriangle"
		case KindStream:
			shape = "diamond"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\\n(%s on %s via %s)\" shape=%s];\n",
			i, dotEscape(n.op.name), n.op.kind, dotEscape(n.tc.Name()), dotEscape(n.route.Name()), shape)
	}
	for i := range g.nodes {
		for _, s := range g.succ[i] {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", i, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dotEscape makes an arbitrary name safe inside a double-quoted DOT
// string: backslashes and quotes are escaped and literal newlines become
// the label line break, so hostile names cannot produce invalid Graphviz.
func dotEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n\r") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			// discard; a bare CR has no DOT representation
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
