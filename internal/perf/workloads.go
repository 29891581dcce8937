package perf

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/dps"
	"repro/internal/life"
	"repro/internal/parlife"
)

// meter collects what operation bodies and generators count during a run. An
// op that was attempted and never counted done — a call that erred, passed
// its deadline or returned a wrong result, a block that never reached the
// merge — is a failed op.
type meter struct {
	attempted atomic.Int64
	ops       atomic.Int64 // ops completed and verified
	wrong     atomic.Int64 // ops that completed with a wrong result

	// hists file the latencies of completed ops, one per slot so that each
	// has a single writer; drain empties them between two segments of load,
	// when no writer runs.
	hists []latHist

	errMu    sync.Mutex
	firstErr error
}

func newMeter(slots int) *meter { return &meter{hists: make([]latHist, slots)} }

// drain moves every slot's samples into into (nil: discards them).
func (m *meter) drain(into *latHist) {
	for i := range m.hists {
		if into != nil {
			into.merge(&m.hists[i])
		}
		m.hists[i] = latHist{}
	}
}

// done counts one verified op and files its latency.
func (m *meter) done(slot int, latNs int64) {
	m.hists[slot].record(latNs)
	m.ops.Add(1)
}

func (m *meter) fail(err error) {
	m.errMu.Lock()
	if m.firstErr == nil {
		m.firstErr = err
	}
	m.errMu.Unlock()
}

// env is what a workload is built on: an application, the names of the nodes
// playing the three roles (all equal on the one-node local applications the
// layer probes use), the seed, and where to count and trace (t nil: untraced).
type env struct {
	app   *dps.App
	nodes [3]string
	seed  int64
	procs int
	m     *meter
	t     *tracer
}

// driver is one built workload.
type driver interface {
	// run issues n ops back to back from one caller. Set-up warms the
	// workload with it; the layer probes time it on a local application.
	run(n int) error
	// check verifies the state the warm-up left, outside any timing.
	check() error
	// generators is the number of closed-loop load goroutines.
	generators() int
	// generate issues ops back to back until stop is set.
	generate(g int, stop *atomic.Bool)
	// finish verifies end-of-run state once every generator has returned.
	finish() error
}

// workloadDef is one declared workload: its name and why it exists (as in
// BENCHMARK.json), its engine options and its builder.
type workloadDef struct {
	name, why string
	// ungated, when not empty, says why BENCHMARK.json leaves the workload
	// out: the command runs and reports it, the driver does not gate on it.
	ungated string
	opts    []dps.Option
	build   func(e *env) (driver, error)
	// warmOps is the fixed warm-up, part of setup_s.
	warmOps int
	// token makes the workload's main token, for the serial and frame probes.
	token func(seed int64) dps.Token
	// foreignBodies: the operation bodies are not the benchmark's, so hop.*
	// is the frame transit the transport decorator measures and op.* comes
	// from bodyProbe, the bodies' work per op done sequentially, in ns.
	foreignBodies bool
	bodyProbe     func(cfg runConfig) float64
	// yardBody, when set, replaces the yardstick's fill-and-checksum body
	// with work of this workload's kind, weighed against the socket part by
	// yardSocketShare (see yardstick.go).
	yardBody        func(seed int64) yardBody
	yardSocketShare float64
}

// ringDef declares a ring of size-byte blocks in calls of blocks; the warm-up
// is one full call.
func ringDef(name, why string, size, blocks int, opts ...dps.Option) workloadDef {
	return workloadDef{name: name, why: why, opts: opts, warmOps: blocks,
		build: func(e *env) (driver, error) { return buildRing(e, size, blocks) },
		token: func(seed int64) dps.Token {
			b := &RingBlock{Data: make([]byte, size)}
			rand.New(rand.NewSource(seed)).Read(b.Data)
			return b
		}}
}

// workloadDefs are all closed loop: every caller waits for its reply.
var workloadDefs = []workloadDef{
	ringDef("ring_1k", "1 KiB blocks n0 to n1 to n2 to n0, default options: per-token overhead (serial, framing, one frame per token, sched, acks) does nearly all the work", 1<<10, 5000),
	ringDef("ring_1k_batch", "same ring with WithBatch: the coalescer owns the wire, so a change that helps one of the two 1 KiB rings at the other's cost shows", 1<<10, 5000, dps.WithBatch(0, 0, 0)).
		// How full the coalescer's frames get is decided by which comes first,
		// a window ack (it flushes the pending batch) or the 64th token, and
		// the answer differs from run to run: sets of ten 20 s runs of one
		// binary settled at 15-20 tokens per frame and 60 k tokens/s (spread
		// 5 %) or wandered up to 35 per frame and 86 k (spread 19 %). That is
		// a finding about the batcher, not something a 25 % bound can sit on.
		leftUngated("frames fill to 15-20 or to 35 tokens from run to run (60 k to 86 k tokens/s): ten-run spread up to 19 %"),
	ringDef("ring_64k", "64 KiB blocks: bytes, copies and large allocations dominate; the control on which framing or batching changes predict no change", 64<<10, 512),
	{name: "call_fan", why: "GOMAXPROCS callers, split to 1-8 small parts load-balanced over 4 remote leaf threads, merge: callreg, admission, groups, credits and round trips dominate",
		build: buildFan, warmOps: 1000,
		token: func(int64) dps.Token { return &FanPart{Call: 1 << 20, I: 3, Sent: 1 << 40} }},
	{name: "life_halo", why: "parlife 4096x384 in 6 bands on 3 nodes, improved graph: real compute in operation bodies overlapped with 4 KiB halo exchange",
		build: buildLife, warmOps: lifeWarmSteps, foreignBodies: true,
		bodyProbe: lifeBodies, yardBody: lifeYardBody, yardSocketShare: 0,
		token: func(seed int64) dps.Token {
			world, _ := lifeWorlds(seed)
			return &parlife.BorderData{Iter: 1, Dest: 1, Row: append([]uint8(nil), world.Row(0)...)}
		}},
}

func (w workloadDef) leftUngated(why string) workloadDef {
	w.ungated = why
	return w
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---------------------------------------------------------------- ring ----

// RingOrder starts one ring call of Blocks blocks.
type RingOrder struct{ Call, Blocks int }

// RingBlock is one block travelling the ring. Born is stamped once at the
// split's post (end-to-end token latency); Sent is re-stamped by every body
// that forwards it in the traced run (hop transit).
type RingBlock struct {
	Call, Seq  int
	Born, Sent int64
	Data       []byte
}

// RingDone is the merge's verdict on one call.
type RingDone struct{ Call, Blocks, Bad int }

var (
	_ = dps.Register[RingOrder]()
	_ = dps.Register[RingBlock]()
	_ = dps.Register[RingDone]()
)

// ringDeadline bounds one ring call: about fifty times what a healthy call of
// 5 000 1 KiB blocks takes on the reference host.
const ringDeadline = 15 * time.Second

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ring is split(n0) -> forward(n1) -> forward(n2) -> merge(n0): every block
// crosses three loopback TCP links. One generator issues calls back to back;
// an op is a block verified by the merge.
type ring struct {
	e            *env
	g            dps.Graph[*RingOrder, *RingDone]
	size, blocks int
	master       []byte
	sums         []uint32 // expected checksum of block Seq
	seen         []bool   // merge-thread scratch: Seqs seen in the current call
	calls        atomic.Uint64
}

func buildRing(e *env, size, blocks int) (driver, error) {
	r := &ring{e: e, size: size, blocks: blocks,
		master: make([]byte, size), sums: make([]uint32, blocks), seen: make([]bool, blocks)}
	rand.New(rand.NewSource(e.seed)).Read(r.master)
	scratch := make([]byte, size)
	for i := range r.sums {
		r.sums[i] = crc32.Checksum(r.fill(scratch, i), castagnoli)
	}

	hops := make([]*dps.Collection, 3)
	for i := range hops {
		col, err := dps.NewCollection[struct{}](e.app, fmt.Sprintf("ring-hop%d", i))
		if err != nil {
			return nil, err
		}
		if err := col.MapNodes(e.nodes[i]); err != nil {
			return nil, err
		}
		hops[i] = col
	}
	t, m := e.t, e.m

	split := dps.Split("ring-split", hops[0], dps.MainRoute(),
		func(c *dps.Ctx, in *RingOrder, post func(*RingBlock)) {
			sp := t.op("ring.split", c.Node(), uint64(in.Call))
			for i := 0; i < in.Blocks; i++ {
				b := &RingBlock{Call: in.Call, Seq: i, Data: r.fill(make([]byte, r.size), i)}
				b.Born = nowNs()
				b.Sent = b.Born
				sp.pause()
				post(b)
				sp.resume()
			}
			sp.pause()
		})
	forward := func(hop int) dps.Stage[*RingBlock, *RingBlock] {
		name := fmt.Sprintf("ring.forward%d", hop)
		return dps.Leaf(fmt.Sprintf("ring-forward%d", hop), hops[hop], dps.MainRoute(),
			func(c *dps.Ctx, in *RingBlock) *RingBlock {
				if t == nil {
					return in
				}
				sp := t.op(name, c.Node(), uint64(in.Call))
				t.hop(name, c.Node(), uint64(in.Call), in.Sent, sp.start)
				in.Sent = nowNs()
				sp.pause()
				return in
			})
	}
	merge := dps.Merge("ring-merge", hops[0], dps.MainRoute(),
		func(c *dps.Ctx, first *RingBlock, next func() (*RingBlock, bool)) *RingDone {
			sp := t.op("ring.merge", c.Node(), uint64(first.Call))
			clear(r.seen)
			good, bad := 0, 0
			for b, ok := first, true; ok; {
				now := nowNs()
				t.hop("ring.merge", c.Node(), uint64(b.Call), b.Sent, now)
				if r.valid(b, first.Call) {
					good++
					m.done(0, now-b.Born)
				} else {
					bad++
				}
				sp.pause()
				b, ok = next()
				sp.resume()
			}
			sp.pause()
			return &RingDone{Call: first.Call, Blocks: good, Bad: bad}
		})

	var err error
	r.g, err = dps.Build(e.app, "ring", dps.Then(dps.Then(dps.Then(dps.Chain(split), forward(1)), forward(2)), merge))
	if err != nil {
		return nil, err
	}
	return r, nil
}

// fill writes block seq's payload into dst: the seeded master bytes with the
// sequence number over the first eight, so blocks differ and a block's data
// delivered under another's Seq fails its checksum.
func (r *ring) fill(dst []byte, seq int) []byte {
	copy(dst, r.master)
	binary.LittleEndian.PutUint64(dst, uint64(seq))
	return dst
}

func (r *ring) valid(b *RingBlock, call int) bool {
	if b.Call != call || b.Seq < 0 || b.Seq >= len(r.sums) || r.seen[b.Seq] {
		return false
	}
	r.seen[b.Seq] = true
	return len(b.Data) == r.size && crc32.Checksum(b.Data, castagnoli) == r.sums[b.Seq]
}

func (r *ring) call(blocks int) error {
	m, t := r.e.m, r.e.t
	id := r.calls.Add(1)
	m.attempted.Add(int64(blocks))
	ctx, cancel := context.WithTimeout(context.Background(), ringDeadline)
	start := nowNs()
	out, err := r.g.Call(ctx, &RingOrder{Call: int(id), Blocks: blocks})
	cancel()
	if t != nil {
		end := nowNs()
		t.add(kindCall, "ring.call", r.e.nodes[0], id, 0, start, end)
	}
	if err != nil {
		return fmt.Errorf("ring call %d: %w", id, err)
	}
	if out.Call != int(id) || out.Blocks != blocks || out.Bad != 0 {
		m.wrong.Add(1)
		return fmt.Errorf("ring call %d: merge saw %d good and %d bad blocks of %d (answer for call %d)", id, out.Blocks, out.Bad, blocks, out.Call)
	}
	return nil
}

func (r *ring) run(n int) error {
	for ; n > 0; n -= r.blocks {
		if err := r.call(min(n, r.blocks)); err != nil {
			return err
		}
	}
	return nil
}

func (r *ring) check() error    { return nil }
func (r *ring) generators() int { return 1 }
func (r *ring) finish() error   { return nil }

func (r *ring) generate(_ int, stop *atomic.Bool) {
	for !stop.Load() {
		if err := r.call(r.blocks); err != nil {
			// A broken stream does not mend: stop generating and let the
			// blocks that never arrived count as failed.
			r.e.m.fail(err)
			return
		}
	}
}

// ------------------------------------------------------------ call_fan ----

// FanReq asks for Fan parts; FanPart is one of them; FanRes reports how many
// the merge collected and the sum of their indices.
type FanReq struct{ Call, Fan int }
type FanPart struct {
	Call, I int
	Sent    int64
}
type FanRes struct{ Call, N, Sum int }

var (
	_ = dps.Register[FanReq]()
	_ = dps.Register[FanPart]()
	_ = dps.Register[FanRes]()
)

const (
	fanLeafThreads = 4
	fanMaxWidth    = 8
)

// fan is split(n0) -> leaf, load-balanced over four threads on n1/n2 ->
// merge(n0), called from GOMAXPROCS callers whose origins rotate over the
// three nodes. An op is a call.
type fan struct {
	e     *env
	g     dps.Graph[*FanReq, *FanRes]
	calls atomic.Uint64
	// widths[g] draws generator g's fan widths. It outlives the segments of a
	// phase (one goroutine at a time uses it), so a phase walks through one
	// seeded sequence and does not replay its head every segment.
	widths []*rand.Rand
}

func buildFan(e *env) (driver, error) {
	f := &fan{e: e}
	for g := 0; g < e.procs; g++ {
		f.widths = append(f.widths, rand.New(rand.NewSource(e.seed*131+int64(g))))
	}
	front, err := dps.NewCollection[struct{}](e.app, "fan-front")
	if err != nil {
		return nil, err
	}
	if err := front.MapNodes(e.nodes[0]); err != nil {
		return nil, err
	}
	leaves, err := dps.NewCollection[struct{}](e.app, "fan-leaves")
	if err != nil {
		return nil, err
	}
	stripe := make([]string, fanLeafThreads)
	for i := range stripe {
		stripe[i] = e.nodes[1+i%2]
	}
	if err := leaves.MapNodes(stripe...); err != nil {
		return nil, err
	}
	t := e.t

	split := dps.Split("fan-split", front, dps.MainRoute(),
		func(c *dps.Ctx, in *FanReq, post func(*FanPart)) {
			sp := t.op("fan.split", c.Node(), uint64(in.Call))
			for i := 0; i < in.Fan; i++ {
				p := &FanPart{Call: in.Call, I: i, Sent: nowNs()}
				sp.pause()
				post(p)
				sp.resume()
			}
			sp.pause()
		})
	leaf := dps.Leaf("fan-leaf", leaves, dps.LoadBalanced(),
		func(c *dps.Ctx, in *FanPart) *FanPart {
			if t == nil {
				return in
			}
			sp := t.op("fan.leaf", c.Node(), uint64(in.Call))
			t.hop("fan.leaf", c.Node(), uint64(in.Call), in.Sent, sp.start)
			in.Sent = nowNs()
			sp.pause()
			return in
		})
	merge := dps.Merge("fan-merge", front, dps.MainRoute(),
		func(c *dps.Ctx, first *FanPart, next func() (*FanPart, bool)) *FanRes {
			sp := t.op("fan.merge", c.Node(), uint64(first.Call))
			res := &FanRes{Call: first.Call}
			for p, ok := first, true; ok; {
				if t != nil {
					t.hop("fan.merge", c.Node(), uint64(p.Call), p.Sent, nowNs())
				}
				if p.Call == first.Call {
					res.N++
					res.Sum += p.I
				}
				sp.pause()
				p, ok = next()
				sp.resume()
			}
			sp.pause()
			return res
		})
	f.g, err = dps.Build(e.app, "fan", dps.Then(dps.Then(dps.Chain(split), leaf), merge))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// call makes one call of the given width from origin and files its latency
// under slot.
func (f *fan) call(slot int, origin string, width int) error {
	m, t := f.e.m, f.e.t
	id := f.calls.Add(1)
	m.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	start := nowNs()
	out, err := f.g.CallFrom(ctx, origin, &FanReq{Call: int(id), Fan: width})
	end := nowNs()
	cancel()
	if t != nil {
		t.add(kindCall, "fan.call", origin, id, 0, start, end)
	}
	if err != nil {
		return fmt.Errorf("fan call %d from %s: %w", id, origin, err)
	}
	if out.Call != int(id) || out.N != width || out.Sum != width*(width-1)/2 {
		m.wrong.Add(1)
		return fmt.Errorf("fan call %d: width %d answered N=%d Sum=%d for call %d", id, width, out.N, out.Sum, out.Call)
	}
	m.done(slot, end-start)
	return nil
}

func (f *fan) run(n int) error {
	for i := 0; i < n; i++ {
		if err := f.call(0, f.e.nodes[i%3], 1+i%fanMaxWidth); err != nil {
			return err
		}
	}
	return nil
}

func (f *fan) check() error    { return nil }
func (f *fan) generators() int { return f.e.procs }
func (f *fan) finish() error   { return nil }

func (f *fan) generate(g int, stop *atomic.Bool) {
	rng, origin := f.widths[g], f.e.nodes[g%3]
	for !stop.Load() {
		if err := f.call(g, origin, 1+rng.Intn(fanMaxWidth)); err != nil {
			// One late or wrong call is one failed op; the caller goes on.
			f.e.m.fail(err)
		}
	}
}

// ----------------------------------------------------------- life_halo ----

const (
	lifeWidth     = 4096 // one border row is 4 KiB on the wire
	lifeHeight    = 384
	lifeBands     = 6 // two per node
	lifeWarmSteps = 32
	// A cell's update branches on its state and neighbour count, so a step
	// costs what the branch predictor makes of the world: a 35 % soup starts
	// at 22 ms per sequential step and decays to 12 ms over 2 000 generations,
	// which would make an iteration's cost depend on how many came before it.
	// At 10 % the world is near its long-run density from the first generation
	// and a step costs 12.6 ms at generation 32, 12.0 ms at 2 000.
	lifeDensity = 0.10
)

// lifeHalo steps parlife's improved graph (interior computed while the
// borders travel) back to back. An op is an iteration. The operation bodies
// are parlife's, so the traced run has only root spans and transport spans.
type lifeHalo struct {
	e     *env
	sim   *parlife.Sim
	steps int
}

// lifeRef caches, per seed, the seeded world and the sequential reference
// after the warm-up steps: several set-ups in one run share them.
var lifeRef struct {
	sync.Mutex
	seed          int64
	world, warmed *life.World
}

func lifeWorlds(seed int64) (world, warmed *life.World) {
	lifeRef.Lock()
	defer lifeRef.Unlock()
	if lifeRef.world == nil || lifeRef.seed != seed {
		lifeRef.seed = seed
		lifeRef.world = life.RandomWorld(lifeWidth, lifeHeight, lifeDensity, seed)
		lifeRef.warmed = lifeRef.world.StepN(lifeWarmSteps)
	}
	return lifeRef.world, lifeRef.warmed
}

// lifeBodies times the work parlife's operation bodies do per iteration —
// border copies, interior and edge rows of every band — with the same
// life.Band calls on one goroutine, in ns. It steps one band at a time, as a
// worker thread does (borders are read from the neighbours without advancing
// them: the cost of a step does not depend on whose generation they hold), so
// the working set is a band, not the world; the figure is the bodies' cost at
// its cheapest, which keeps op.body_share a valid cap.
func lifeBodies(cfg runConfig) float64 {
	_, world := lifeWorlds(cfg.seed) // as the measured phase finds it
	bounds := life.BandBounds(lifeHeight, lifeBands)
	bands := make([]*life.Band, lifeBands)
	for i := range bands {
		bands[i] = life.ExtractBand(world, bounds[i], bounds[i+1])
	}
	v, _ := probe(cfg, func(n int) {
		for i, b := range bands {
			up, down := bands[(i+lifeBands-1)%lifeBands], bands[(i+1)%lifeBands]
			cur, next := b, b.NewShadow()
			for k := 0; k < n; k++ {
				cur.UpBorder, cur.DnBorder = up.LastRow(), down.FirstRow()
				cur.StepAll(next)
				cur, next = next, cur
			}
		}
	})
	return v
}

// lifeYardBody is life_halo's yardstick body: sequential steps of one band of
// the seeded world, the work parlife's operation bodies are made of. Every
// rep computes the same generation from the same cells, so every rep is the
// same work.
func lifeYardBody(seed int64) yardBody {
	world, _ := lifeWorlds(seed)
	cur := life.ExtractBand(world, 0, lifeHeight/lifeBands)
	cur.UpBorder, cur.DnBorder = world.Row(lifeHeight-1), world.Row(lifeHeight/lifeBands)
	next := cur.NewShadow()
	return yardBody{reps: 8, nominal: 2100 * time.Microsecond, run: func() { cur.StepAll(next) }}
}

func buildLife(e *env) (driver, error) {
	workers := make([]string, lifeBands)
	for i := range workers {
		workers[i] = e.nodes[i*3/lifeBands]
	}
	sim, err := parlife.New(e.app.Core(), lifeWidth, lifeHeight, parlife.Options{Name: "life", Workers: lifeBands, WorkerNodes: workers})
	if err != nil {
		return nil, err
	}
	world, _ := lifeWorlds(e.seed)
	if err := sim.Load(world); err != nil {
		return nil, fmt.Errorf("life load: %w", err)
	}
	return &lifeHalo{e: e, sim: sim}, nil
}

// step runs one iteration. parlife.Step takes no context, so the deadline is
// applied after the fact (a late iteration is a failed op) and an iteration
// that never returns is the watchdog's.
func (l *lifeHalo) step() error {
	m, t := l.e.m, l.e.t
	l.steps++
	m.attempted.Add(1)
	start := nowNs()
	err := l.sim.Step(true)
	end := nowNs()
	if t != nil {
		t.add(kindCall, "life.step", l.e.nodes[0], uint64(l.steps), 0, start, end)
	}
	if err != nil {
		return fmt.Errorf("life step %d: %w", l.steps, err)
	}
	if d := time.Duration(end - start); d > callDeadline {
		return fmt.Errorf("life step %d took %v, past the %v deadline", l.steps, d, callDeadline)
	}
	m.done(0, end-start)
	return nil
}

func (l *lifeHalo) run(n int) error {
	for i := 0; i < n; i++ {
		if err := l.step(); err != nil {
			return err
		}
	}
	return nil
}

func (l *lifeHalo) check() error {
	got, err := l.sim.Gather()
	if err != nil {
		return fmt.Errorf("life gather: %w", err)
	}
	if _, want := lifeWorlds(l.e.seed); !got.Equal(want) {
		l.e.m.wrong.Add(1)
		return fmt.Errorf("life: world after %d distributed iterations differs from the sequential reference", lifeWarmSteps)
	}
	return nil
}

func (l *lifeHalo) generators() int { return 1 }

func (l *lifeHalo) generate(_ int, stop *atomic.Bool) {
	for !stop.Load() {
		if err := l.step(); err != nil {
			l.e.m.fail(err)
			if err := l.finish(); err != nil {
				return // the simulation lost an iteration; going on would compound it
			}
		}
	}
}

func (l *lifeHalo) finish() error {
	if l.sim.Iter() != l.steps {
		l.e.m.wrong.Add(1)
		return fmt.Errorf("life: simulation at iteration %d after %d steps issued", l.sim.Iter(), l.steps)
	}
	return nil
}
