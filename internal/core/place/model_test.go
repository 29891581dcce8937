package place

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
)

// This file explores the placement machine exhaustively at small scope: a
// model of the live-remap protocol around real Thread values, with a FIFO
// channel per (source, destination) pair of nodes, walked depth-first through
// every order in which posts, deliveries and coordinator steps can
// interleave. What migrate.go does with a verdict is modelled in a few lines
// each (deliver to the instance, re-send on the forwarded lane, install the
// state); everything that decides order is the code under test.
//
// Properties, checked at every state or at the step named:
//
//   - FIFO: the instance sees each sender's tokens in posting order;
//   - ownership: a token is only ever delivered on the node that holds the
//     instance's state;
//   - quiescence is honest: Quiesced is never true on a node where a
//     delivery the machine cleared has not yet reached the instance;
//   - the quota blocks the onward move: when a second move passes its
//     quiesce, no fence, no forwarded item and no item addressed to a former
//     owner is left anywhere;
//   - an aborted hold re-delivers what it held, in order (same FIFO check);
//   - nothing is lost, duplicated or stranded: every run ends with every
//     token delivered once and every buffer empty.

const (
	mToken = iota
	mFence
	mState
)

// msg is one message of the model; it doubles as the opaque item the
// machines store.
type msg struct {
	kind   uint8
	lane   Lane
	sender uint8 // token: index of the posting sender; fence: emitting node
	seq    uint8
	epoch  uint64
	fences int
}

func (m msg) String() string {
	switch m.kind {
	case mToken:
		lane := ""
		if m.lane == Forwarded {
			lane = " (forwarded)"
		}
		return fmt.Sprintf("token %d of sender %d%s", m.seq, m.sender, lane)
	case mFence:
		return fmt.Sprintf("closing fence of %s for epoch %d", nodeNames[m.sender], m.epoch)
	}
	return fmt.Sprintf("state for epoch %d, %d fences", m.epoch, m.fences)
}

// reader is the goroutine serving one channel: between taking a verdict (or
// a batch) and reporting it done, it is somewhere in the middle of the
// delivery — which is exactly where the other goroutines get to interleave.
type reader struct {
	busy  bool
	one   bool // a single Deliver verdict rather than a drain's batch
	batch []any
}

type move struct{ from, to int }

type scenario struct {
	name  string
	nodes int
	moves []move
	abort bool // the first hold is abandoned once, at any moment before its flip
	// tokens[i] is how many tokens sender i posts on each side of each flip.
	tokens []int
}

type world struct {
	sc *scenario

	th  []*Thread
	own []bool    // own[n]: th[n] is this world's alone (see clone)
	ch  [][][]msg // ch[src][dst]
	rd  [][]reader
	crd reader // the coordinator's own drain (after Abort)
	// flushing is the batch Flush handed the coordinator and it has not sent
	// yet.
	flushing []any

	owner int // the placement table
	epoch uint64
	inst  int   // node holding the instance's state; -1 while it travels
	next  []int // the instance's state: next expected seq per sender
	done  []int // tokens posted per sender

	mv      int // index of the move in progress
	pc      int // coordinator step within the move
	aborted bool
}

var nodeNames = []string{"A", "B", "C"}

// Two senders: one on the first old owner, one on the first new owner.
var senderHome = []int{0, 1}

func newWorld(sc *scenario) *world {
	w := &world{sc: sc, next: make([]int, len(senderHome)), done: make([]int, len(senderHome))}
	w.owner, w.inst = sc.moves[0].from, sc.moves[0].from
	w.epoch = 1
	for i := 0; i < sc.nodes; i++ {
		w.th = append(w.th, NewThread(nil))
		w.own = append(w.own, true)
		w.ch = append(w.ch, make([][]msg, sc.nodes))
		w.rd = append(w.rd, make([]reader, sc.nodes))
	}
	w.postUncontended()
	return w
}

func cloneEntries(es []entry) []entry { return append([]entry(nil), es...) }

func (t *Thread) clone() *Thread {
	c := &Thread{
		mode: t.mode, target: t.target, holdEpoch: t.holdEpoch,
		held: cloneEntries(t.held), pending: cloneEntries(t.pending),
		ownEpoch: t.ownEpoch, quota: t.quota,
		ready: append([]any(nil), t.ready...), draining: t.draining, delivering: t.delivering,
	}
	if t.installed != nil {
		c.installed = make(chan struct{})
	}
	if t.gates != nil {
		c.gates = make(map[string]*gate, len(t.gates))
		for src, g := range t.gates {
			c.gates[src] = &gate{closed: g.closed, buf: cloneEntries(g.buf)}
		}
	}
	return c
}

// clone copies w for one step to mutate. A world is never changed once it
// has been cloned, so the copy shares the machines, queues and batches and
// un-shares each only when it writes to it (mut, send).
func (w *world) clone() *world {
	c := *w
	c.th = append([]*Thread(nil), w.th...)
	c.own = make([]bool, len(w.th))
	c.ch = make([][][]msg, len(w.ch))
	c.rd = make([][]reader, len(w.rd))
	for i := range w.ch {
		c.ch[i] = append([][]msg(nil), w.ch[i]...)
		c.rd[i] = append([]reader(nil), w.rd[i]...)
	}
	c.next = append([]int(nil), w.next...)
	c.done = append([]int(nil), w.done...)
	return &c
}

// mut returns node n's machine for a call that changes it.
func (w *world) mut(n int) *Thread {
	if !w.own[n] {
		w.th[n], w.own[n] = w.th[n].clone(), true
	}
	return w.th[n]
}

// --- canonical encoding, for the visited set --------------------------------

func encMsg(b []byte, m msg) []byte {
	return append(b, m.kind, byte(m.lane), m.sender, m.seq, byte(m.epoch), byte(m.fences))
}

func encEntries(b []byte, es []entry) []byte {
	b = append(b, byte(len(es)))
	for _, e := range es {
		b = append(b, e.src...)
		b = encMsg(b, e.item.(msg))
	}
	return b
}

func encItems(b []byte, items []any) []byte {
	b = append(b, byte(len(items)))
	for _, it := range items {
		b = encMsg(b, it.(msg))
	}
	return b
}

func (w *world) key() uint64 {
	b := make([]byte, 0, 512)
	b = append(b, byte(w.owner), byte(w.epoch), byte(w.inst+1), byte(w.mv), byte(w.pc))
	if w.aborted {
		b = append(b, 1)
	}
	for i := range w.next {
		b = append(b, byte(w.next[i]), byte(w.done[i]))
	}
	encReader := func(r reader) {
		b = append(b, '|')
		if r.busy {
			b = append(b, 1)
			if r.one {
				b = append(b, 1)
			}
			b = encItems(b, r.batch)
		}
	}
	encReader(w.crd)
	if w.flushing != nil {
		b = encItems(b, w.flushing)
	}
	for i, t := range w.th {
		b = append(b, '#', byte(t.mode), byte(t.holdEpoch), byte(t.ownEpoch), byte(t.quota), byte(t.delivering))
		b = append(b, t.target...)
		if t.draining {
			b = append(b, 1)
		}
		b = encEntries(b, t.held)
		b = encEntries(b, t.pending)
		b = encItems(b, t.ready)
		srcs := make([]string, 0, len(t.gates))
		for src := range t.gates {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			g := t.gates[src]
			b = append(b, src...)
			if g.closed {
				b = append(b, 1)
			}
			b = encEntries(b, g.buf)
		}
		for j := range w.ch[i] {
			b = append(b, '/', byte(len(w.ch[i][j])))
			for _, m := range w.ch[i][j] {
				b = encMsg(b, m)
			}
			encReader(w.rd[i][j])
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// --- the instance ------------------------------------------------------------

// execute is the instance running one delivered token on node n.
func (w *world) execute(n int, it any) error {
	m := it.(msg)
	if w.inst != n {
		return fmt.Errorf("token %d of sender %d delivered on %s, but the instance's state is %s",
			m.seq, m.sender, nodeNames[n], w.where())
	}
	if int(m.seq) != w.next[m.sender] {
		return fmt.Errorf("FIFO: sender %d's token %d reached the instance, want %d", m.sender, m.seq, w.next[m.sender])
	}
	w.next[m.sender]++
	return nil
}

func (w *world) where() string {
	if w.inst < 0 {
		return "in flight"
	}
	return "on " + nodeNames[w.inst]
}

// --- steps -------------------------------------------------------------------

const (
	stPost = iota
	stRecv
	stCoord
	stAbort
)

// step is one enabled action: sender a posts, the reader of channel a→b
// advances, or the coordinator does.
type step struct {
	kind, a, b int
	stage      int
}

func (st step) run(w *world) error {
	switch st.kind {
	case stPost:
		w.post(st.a)
		return nil
	case stRecv:
		return w.receive(st.a, st.b)
	case stCoord:
		return w.coordinate()
	}
	return w.abort()
}

var coordSteps = [...]string{
	"begins the hold", "sees it quiesced: captures the state, the new owner expects it",
	"flips the table, every node emits its closing fence", "ships the state",
	"flushes (takes a batch, or sends the one it took)", "sees the state installed",
}

// label describes the step as enabled in w.
func (st step) label(w *world) string {
	switch st.kind {
	case stPost:
		return fmt.Sprintf("sender %d posts #%d to %s", st.a, w.done[st.a], nodeNames[w.owner])
	case stRecv:
		l := fmt.Sprintf("%s→%s: ", nodeNames[st.a], nodeNames[st.b])
		if r := w.rd[st.a][st.b]; r.busy {
			return l + fmt.Sprintf("finishes delivering %v", r.batch)
		}
		return l + fmt.Sprintf("receives %v", w.ch[st.a][st.b][0])
	case stCoord:
		return fmt.Sprintf("coordinator, move %d: %s", w.mv, coordSteps[w.pc])
	}
	return "coordinator: aborts the hold / drains what it held"
}

func (w *world) send(src, dst int, m msg) {
	q := w.ch[src][dst]
	w.ch[src][dst] = append(q[:len(q):len(q)], m) // never into an array a sibling state shares
}

// forward is migrate.go's forwardItem: tokens change lane, fences travel as
// they are.
func (w *world) forward(from int, target string, m msg) {
	if m.kind == mToken {
		m.lane = Forwarded
	}
	for n, name := range nodeNames {
		if name == target {
			w.send(from, n, m)
		}
	}
}

// receive is one step of the goroutine serving channel src→dst.
func (w *world) receive(src, dst int) error {
	r := &w.rd[src][dst]
	th := w.mut(dst)
	if r.busy {
		// Second half of a delivery: the items reach the instance, and the
		// machine learns of it.
		for _, it := range r.batch {
			if err := w.execute(dst, it); err != nil {
				return err
			}
		}
		if r.one {
			th.Done()
			*r = reader{}
			return nil
		}
		r.batch = th.Next(len(r.batch))
		r.busy = r.batch != nil
		return nil
	}
	m := w.ch[src][dst][0]
	w.ch[src][dst] = w.ch[src][dst][1:]
	switch m.kind {
	case mToken:
		switch v, target := th.Arrive(nodeNames[src], m.lane, m); v {
		case Deliver:
			*r = reader{busy: true, one: true, batch: []any{m}}
		case Forward:
			w.forward(dst, target, m)
		}
	case mFence:
		v, target, batch := th.Fence(nodeNames[m.sender], m.epoch, m)
		if v == Forward {
			w.forward(dst, target, m)
		}
		*r = reader{busy: batch != nil, batch: batch}
	case mState:
		w.inst = dst
		*r = reader{busy: true, batch: th.Install(m.epoch, m.fences, nodeNames[src])}
	}
	return nil
}

// coordinate is one step of a live rehome (App.rehome) for the move in
// progress.
func (w *world) coordinate() error {
	mv := w.sc.moves[w.mv]
	old := w.mut(mv.from)
	switch w.pc {
	case 0:
		if err := old.BeginHold(w.epoch); err != nil {
			return err
		}
		w.pc = 1
	case 1: // quiesced: capture, expect
		if w.mv > 0 {
			if err := w.nothingStale(); err != nil {
				return fmt.Errorf("move %d quiesced before the previous move's handshakes completed: %w", w.mv, err)
			}
		}
		w.inst = -1
		w.mut(mv.to).Expect()
		w.pc = 2
	case 2: // flip and fence, under every route lock
		w.owner = mv.to
		w.epoch++
		for n := 0; n < w.sc.nodes; n++ {
			w.send(n, mv.from, msg{kind: mFence, sender: uint8(n), epoch: w.epoch})
		}
		w.pc = 3
		w.postUncontended()
	case 3: // ship the state
		w.send(mv.from, mv.to, msg{kind: mState, epoch: w.epoch, fences: w.sc.nodes})
		w.pc = 4
	case 4: // flush: take a batch in one step, send it in the next
		if w.flushing != nil {
			for _, it := range w.flushing {
				w.forward(mv.from, nodeNames[mv.to], it.(msg))
			}
			w.flushing = nil
		} else if w.flushing = old.Flush(nodeNames[mv.to]); w.flushing == nil {
			w.pc = 5
		}
	case 5: // installed
		w.mv++
		w.pc = 0
	}
	return nil
}

// abort is the coordinator giving up on a hold (a quiesce timeout): it then
// owns the drain of what was held, one batch a step, and starts over.
func (w *world) abort() error {
	mv := w.sc.moves[w.mv]
	th := w.mut(mv.from)
	if !w.crd.busy {
		w.aborted = true
		batch := th.Abort()
		w.crd = reader{busy: batch != nil, batch: batch}
	} else {
		for _, it := range w.crd.batch {
			if err := w.execute(mv.from, it); err != nil {
				return err
			}
		}
		w.crd.batch = th.Next(len(w.crd.batch))
		w.crd.busy = w.crd.batch != nil
	}
	if !w.crd.busy {
		w.pc = 0
	}
	return nil
}

// nothingStale is what the fence quota certifies when an onward move passes
// its quiesce: everything in flight is a direct token to the current owner.
func (w *world) nothingStale() error {
	for s := range w.ch {
		for d, q := range w.ch[s] {
			for _, m := range q {
				if m.kind != mToken || m.lane != Direct || d != w.owner {
					return fmt.Errorf("%s→%s still carries %v", nodeNames[s], nodeNames[d], m)
				}
			}
		}
	}
	for n, t := range w.th {
		if n != w.owner && (len(t.held) > 0 || len(t.pending) > 0 || len(t.ready) > 0) {
			return fmt.Errorf("former owner %s still buffers items", nodeNames[n])
		}
	}
	return nil
}

// phase is the number of flips done: tokens posted now belong to it.
func (w *world) phase() int {
	if w.mv < len(w.sc.moves) && w.pc > 2 {
		return w.mv + 1
	}
	return w.mv
}

// contended reports whether sender i shares the channel it posts on in the
// current phase with another writer: the old owner of the phase's flip ships
// the state and forwards on its channel to the new owner, so only the order
// of a sender colocated with it against those writes is worth enumerating.
func (w *world) contended(i int) bool {
	p := w.phase()
	return p > 0 && senderHome[i] == w.sc.moves[p-1].from
}

func (w *world) post(i int) {
	w.send(senderHome[i], w.owner, msg{kind: mToken, lane: Direct, sender: uint8(i), seq: uint8(w.done[i])})
	w.done[i]++
}

// postUncontended posts the current phase's tokens of every sender nobody
// else writes behind: a post commutes with every step that does not append
// to the same channel, so posting at once loses no interleaving.
func (w *world) postUncontended() {
	for i := range senderHome {
		for !w.contended(i) && w.done[i] < w.sc.tokens[i]*(w.phase()+1) {
			w.post(i)
		}
	}
}

// stage places node n in the order traffic flows at this moment: former
// owners (they only forward) first, then the owner, then the node the thread
// is moving to.
func (w *world) stage(n int) int {
	if w.mv == len(w.sc.moves) {
		if n == w.owner {
			return 1
		}
		return 0
	}
	switch mv := w.sc.moves[w.mv]; {
	case n == mv.to && w.pc >= 2:
		return 2
	case n == mv.from:
		return 1
	}
	return 0
}

// steps lists the actions to explore from w. A node reacts only to what it
// receives, in the order it receives it, so holding a node back until
// everything upstream of it has come to rest loses none of the orders in
// which it can see its input: only the enabled actions of the most upstream
// stage are explored. The exception is the state in which the coordinator's
// quiesce check passes — the one step that looks at the whole system — where
// every enabled action is.
func (w *world) steps() []step {
	var out []step
	for i := range senderHome {
		if w.done[i] < w.sc.tokens[i]*(w.phase()+1) {
			out = append(out, step{kind: stPost, a: i, stage: w.stage(senderHome[i])})
		}
	}
	for s := range w.ch {
		for d := range w.ch[s] {
			if w.rd[s][d].busy || len(w.ch[s][d]) > 0 {
				out = append(out, step{kind: stRecv, a: s, b: d, stage: w.stage(d)})
			}
		}
	}
	all := false
	switch {
	case w.crd.busy:
		out = append(out, step{kind: stAbort, stage: 1})
	case w.mv < len(w.sc.moves):
		mv := w.sc.moves[w.mv]
		enabled, stage := true, 1
		switch w.pc {
		case 1:
			enabled = w.th[mv.from].Quiesced()
			all = enabled
			if w.sc.abort && !w.aborted {
				out = append(out, step{kind: stAbort, stage: 1})
			}
		case 2:
			// Each side of each flip sees its share of every sender's tokens.
			for i := range senderHome {
				enabled = enabled && w.done[i] == w.sc.tokens[i]*(w.mv+1)
			}
		case 5:
			enabled, stage = w.inst == mv.to, 2
		}
		if enabled {
			out = append(out, step{kind: stCoord, stage: stage})
		}
	}
	if all {
		return out
	}
	first := 3
	for _, st := range out {
		if st.stage < first {
			first = st.stage
		}
	}
	kept := out[:0]
	for _, st := range out {
		if st.stage == first {
			kept = append(kept, st)
		}
	}
	return kept
}

// invariant is checked in every state.
func (w *world) invariant() error {
	for d := range w.th {
		busy := w.crd.busy && w.mv < len(w.sc.moves) && w.sc.moves[w.mv].from == d
		for s := range w.rd {
			busy = busy || w.rd[s][d].busy
		}
		if busy && w.th[d].Quiesced() {
			return fmt.Errorf("%s reports Quiesced while a delivery it cleared has not reached the instance", nodeNames[d])
		}
	}
	return nil
}

// final is checked in every state with no step enabled.
func (w *world) final() error {
	if w.mv != len(w.sc.moves) {
		return fmt.Errorf("stuck in move %d at step %d", w.mv, w.pc)
	}
	for i, n := range w.next {
		if want := w.sc.tokens[i] * (len(w.sc.moves) + 1); n != want {
			return fmt.Errorf("sender %d: %d of %d tokens reached the instance", i, n, want)
		}
	}
	for n, t := range w.th {
		stranded := len(t.held) + len(t.pending) + len(t.ready) + t.delivering
		for _, g := range t.gates {
			stranded += len(g.buf)
		}
		if stranded != 0 || t.draining {
			return fmt.Errorf("%s ends with %d item(s) buffered (draining=%v)", nodeNames[n], stranded, t.draining)
		}
	}
	return nil
}

// explore walks every interleaving from w depth-first, pruning states
// already seen, and returns the first violation with the steps that led to
// it.
func explore(w *world, seen map[uint64]struct{}, path *[]step) error {
	if err := w.invariant(); err != nil {
		return err
	}
	steps := w.steps()
	if len(steps) == 0 {
		return w.final()
	}
	for _, st := range steps {
		next := w.clone()
		*path = append(*path, st)
		err := st.run(next)
		if err == nil {
			k := next.key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				err = explore(next, seen, path)
			}
		}
		if err != nil {
			return err
		}
		*path = (*path)[:len(*path)-1]
	}
	return nil
}

// narrate replays path from the scenario's start and describes each step.
func narrate(sc *scenario, path []step) string {
	var b strings.Builder
	w := newWorld(sc)
	for _, st := range path {
		fmt.Fprintf(&b, "\n  %s", st.label(w))
		if st.run(w) != nil {
			break
		}
	}
	return b.String()
}

func TestThreadExhaustive(t *testing.T) {
	scenarios := []scenario{
		{name: "A-B", nodes: 2, moves: []move{{0, 1}}, tokens: []int{2, 2}},
		{name: "A-B/abort", nodes: 2, moves: []move{{0, 1}}, abort: true, tokens: []int{2, 2}},
		{name: "A-B-A/s0", nodes: 2, moves: []move{{0, 1}, {1, 0}}, tokens: []int{2, 1}},
		{name: "A-B-A/s1", nodes: 2, moves: []move{{0, 1}, {1, 0}}, tokens: []int{1, 2}},
		{name: "A-B-C/s0", nodes: 3, moves: []move{{0, 1}, {1, 2}}, tokens: []int{2, 0}},
		{name: "A-B-C/s1", nodes: 3, moves: []move{{0, 1}, {1, 2}}, tokens: []int{0, 2}},
		{name: "A-B-C/both", nodes: 3, moves: []move{{0, 1}, {1, 2}}, tokens: []int{1, 1}},
	}
	for i := range scenarios {
		sc := &scenarios[i]
		t.Run(sc.name, func(t *testing.T) {
			seen := make(map[uint64]struct{})
			var path []step
			if err := explore(newWorld(sc), seen, &path); err != nil {
				t.Fatalf("%v\nafter %d states, by this interleaving:%s", err, len(seen), narrate(sc, path))
			}
			t.Logf("%d states", len(seen))
		})
	}
}
