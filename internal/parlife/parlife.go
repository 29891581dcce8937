// Package parlife implements the paper's §5 Game of Life application on
// DPS flow graphs: the world is distributed in horizontal bands across
// worker threads, each iteration exchanges band borders and computes the
// next generation, and two graph variants are provided —
//
//   - Simple (Figure 7): exchange all borders, synchronize globally, then
//     compute;
//   - Improved (Figure 8): compute the band interiors while the borders
//     travel, then compute the edge rows — overlapping communication with
//     computation.
//
// The world-read graph (Figure 10) exposes the distributed world as a
// parallel service: a client request is split to the owning workers, parts
// are read in parallel, and the merge assembles the requested sub-grid.
//
// Border rows travel without copies between co-located bands. A border read
// hands out the source band's own first or last row, so a co-located
// receiver holds a slice of its neighbour's band. That is safe because
// within an iteration a band writes only its shadow, and the per-iteration
// done-merge is a barrier: the receiver drops its borders as soon as the
// rows that read them are computed, so no alias survives into the iteration
// in which the neighbour overwrites the row. A remote receiver holds a copy
// of exactly the row's 4 KiB (a frame under 32 KiB is read into a pooled
// buffer, and the decoder copies the row out of it).
package parlife

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/life"
	"repro/internal/serial"
)

// Tokens of the life application.

// StepOrder starts one iteration.
type StepOrder struct {
	Iter int
}

// BorderRead asks the band owner Src for the border row that band Dest
// needs. Dir 0 requests Src's last row (Dest's upper border), 1 requests
// Src's first row (Dest's lower border).
type BorderRead struct {
	Iter int
	Src  int
	Dest int
	Dir  int
}

// BorderData carries the row to the destination band.
type BorderData struct {
	Iter int
	Dest int
	Dir  int
	Row  []uint8
}

// CenterOrder asks a worker to compute its band interior.
type CenterOrder struct {
	Iter   int
	Worker int
}

// ComputeOrder asks a worker to compute its whole band (simple variant).
type ComputeOrder struct {
	Iter   int
	Worker int
}

// Notify signals completion of one unit of work.
type Notify struct {
	Iter   int
	Worker int
}

// SyncToken marks the end of the global border exchange (simple variant).
type SyncToken struct {
	Iter int
}

// DoneToken completes an iteration.
type DoneToken struct {
	Iter int
}

// LoadOrder carries a band of the initial world to its owner.
type LoadOrder struct {
	Worker int
	Top    int
	Rows   [][]uint8
}

// GatherOrder asks a worker for its band.
type GatherOrder struct {
	Worker int
}

// BandData returns a band to the master.
type BandData struct {
	Worker int
	Top    int
	Rows   [][]uint8
}

// WorldToken is a full reassembled world.
type WorldToken struct {
	Width, Height int
	Cells         []uint8
}

// ReadReq asks the service for the h x w sub-grid at (row, col), wrapping
// toroidally (the paper's visualization client request).
type ReadReq struct {
	Row, Col, H, W int
}

// ReadSeg asks one worker for rows [StartI, StartI+Count) of a request.
type ReadSeg struct {
	Dest     int
	StartI   int
	WorldRow int
	Count    int
	Col, W   int
}

// ReadSegData carries the rows back.
type ReadSegData struct {
	StartI int
	Count  int
	W      int
	Cells  []uint8
}

// ReadResp is the assembled sub-grid.
type ReadResp struct {
	H, W  int
	Cells []uint8
}

var (
	_ = serial.MustRegister[StepOrder]()
	_ = serial.MustRegister[BorderRead]()
	_ = serial.MustRegister[BorderData]()
	_ = serial.MustRegister[CenterOrder]()
	_ = serial.MustRegister[ComputeOrder]()
	_ = serial.MustRegister[Notify]()
	_ = serial.MustRegister[SyncToken]()
	_ = serial.MustRegister[DoneToken]()
	_ = serial.MustRegister[LoadOrder]()
	_ = serial.MustRegister[GatherOrder]()
	_ = serial.MustRegister[BandData]()
	_ = serial.MustRegister[WorldToken]()
	_ = serial.MustRegister[ReadReq]()
	_ = serial.MustRegister[ReadSeg]()
	_ = serial.MustRegister[ReadSegData]()
	_ = serial.MustRegister[ReadResp]()
)

// workerState is a worker thread's private data: its current band, the
// shadow band receiving the next generation, and per-iteration progress.
// All fields are exported and the type registered with internal/serial so
// band workers can be live-migrated between nodes (ThreadCollection.Remap
// ships the state in a migration envelope).
type workerState struct {
	Band, Shadow *life.Band
	// Iter is the iteration currently being computed (Band holds its input
	// generation); ComputedIter is the newest fully computed generation,
	// whose cells live in Shadow while ComputedIter == Iter and in Band
	// after the next iteration's swap.
	Iter         int
	ComputedIter int
	GotUp, GotDn bool
	CenterDone   bool
}

var _ = serial.MustRegister[workerState]()

// newestRows returns the rows of the newest fully computed generation.
func (st *workerState) newestRows() *life.Band {
	if st.ComputedIter == st.Iter && st.ComputedIter > 0 {
		return st.Shadow
	}
	return st.Band
}

// ensureIter swaps band and shadow when the first token of a new iteration
// arrives; the global per-iteration merge guarantees no token of iteration
// t+1 is in flight while iteration t is incomplete, so the swap is safe.
func (st *workerState) ensureIter(iter int) {
	if st.Band == nil {
		panic("parlife: worker received work before its band was loaded")
	}
	if iter == st.Iter {
		return
	}
	if iter != st.Iter+1 {
		panic(fmt.Sprintf("parlife: iteration jumped from %d to %d", st.Iter, iter))
	}
	st.Band, st.Shadow = st.Shadow, st.Band
	st.Iter = iter
	st.GotUp, st.GotDn = false, false
	st.CenterDone = false
	st.Band.UpBorder, st.Band.DnBorder = nil, nil
}

// Sim is a running distributed Game of Life.
type Sim struct {
	app      *core.App
	name     string
	width    int
	height   int
	workers  int
	bounds   []int
	cellCost time.Duration

	master  *core.ThreadCollection
	band    *core.ThreadCollection
	simple  *core.Flowgraph
	improve *core.Flowgraph
	load    *core.Flowgraph
	gather  *core.Flowgraph
	read    *core.Flowgraph

	iter int
}

// Options configures a Sim.
type Options struct {
	// Name prefixes the Sim's collections and graphs (several Sims can share
	// an application).
	Name string
	// Workers is the number of band-owning worker threads.
	Workers int
	// WorkerNodes maps worker thread i to a node; defaults to round-robin
	// over the application's nodes.
	WorkerNodes []string
	// CellCost charges a modelled computation time per cell update on top
	// of the real compute, by sleeping cells*CellCost in the compute
	// operations. The experiment harness uses it to reproduce the paper's
	// communication/computation balance (their 733 MHz Pentium III spent
	// ~125ns per cell) on hosts whose real core count is smaller than the
	// simulated cluster: sleeps overlap across worker threads exactly as
	// the modelled transfers in internal/simnet do, so the distributed
	// speedup shape is visible regardless of host parallelism. Zero charges
	// nothing (pure real compute).
	CellCost time.Duration
}

// New builds the life application's collections and all five flow graphs
// on the given DPS application.
func New(app *core.App, width, height int, opt Options) (*Sim, error) {
	if opt.Name == "" {
		opt.Name = "life"
	}
	if opt.Workers <= 0 {
		return nil, fmt.Errorf("parlife: need at least one worker")
	}
	if height < opt.Workers {
		return nil, fmt.Errorf("parlife: height %d < workers %d", height, opt.Workers)
	}
	s := &Sim{
		app:      app,
		name:     opt.Name,
		width:    width,
		height:   height,
		workers:  opt.Workers,
		bounds:   life.BandBounds(height, opt.Workers),
		cellCost: opt.CellCost,
	}
	var err error
	if s.master, err = core.NewCollection[struct{}](app, opt.Name+"-master"); err != nil {
		return nil, err
	}
	if err = s.master.MapNodes(app.MasterNode()); err != nil {
		return nil, err
	}
	if s.band, err = core.NewCollection[workerState](app, opt.Name+"-workers"); err != nil {
		return nil, err
	}
	if len(opt.WorkerNodes) > 0 {
		if len(opt.WorkerNodes) != opt.Workers {
			return nil, fmt.Errorf("parlife: %d worker nodes for %d workers", len(opt.WorkerNodes), opt.Workers)
		}
		err = s.band.MapNodes(opt.WorkerNodes...)
	} else {
		err = s.band.MapRoundRobin(opt.Workers)
	}
	if err != nil {
		return nil, err
	}
	if err := s.buildGraphs(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Sim) ownerOf(worldRow int) int {
	for i := 0; i < s.workers; i++ {
		if worldRow >= s.bounds[i] && worldRow < s.bounds[i+1] {
			return i
		}
	}
	panic(fmt.Sprintf("parlife: row %d outside world", worldRow))
}

func (s *Sim) up(i int) int   { return (i - 1 + s.workers) % s.workers }
func (s *Sim) down(i int) int { return (i + 1) % s.workers }

// chargeCompute sleeps the modelled computation time of rows band rows
// (see Options.CellCost).
func (s *Sim) chargeCompute(rows int) {
	if s.cellCost > 0 && rows > 0 {
		time.Sleep(time.Duration(rows*s.width) * s.cellCost)
	}
}

// readBorderLeaf hands out the requested border row of the source band: the
// band's own row, not a copy. Nothing writes it until the next iteration's
// swap, and the receiver lets go of it before this iteration ends (see
// storeBorderLeaf and computeAll).
func (s *Sim) readBorderLeaf() *core.OpDef {
	return core.Leaf[*BorderRead, *BorderData](s.name+"-read-border",
		func(c *core.Ctx, in *BorderRead) *BorderData {
			st := core.StateOf[workerState](c)
			st.ensureIter(in.Iter)
			row := st.Band.Rows[0]
			if in.Dir == 0 {
				row = st.Band.Rows[len(st.Band.Rows)-1]
			}
			return &BorderData{Iter: in.Iter, Dest: in.Dest, Dir: in.Dir, Row: row}
		})
}

// storeBorderLeaf stores an arriving border; in the improved variant it also
// computes the band's edge rows once both borders are present and then drops
// both, since they alias the neighbours' bands (see readBorderLeaf).
func (s *Sim) storeBorderLeaf(computeEdges bool, opName string) *core.OpDef {
	return core.Leaf[*BorderData, *Notify](opName,
		func(c *core.Ctx, in *BorderData) *Notify {
			st := core.StateOf[workerState](c)
			st.ensureIter(in.Iter)
			if in.Dir == 0 {
				st.Band.UpBorder = in.Row
				st.GotUp = true
			} else {
				st.Band.DnBorder = in.Row
				st.GotDn = true
			}
			if computeEdges && st.GotUp && st.GotDn {
				st.Band.StepEdges(st.Shadow)
				st.Band.UpBorder, st.Band.DnBorder = nil, nil
				edgeRows := 2
				if len(st.Band.Rows) < 2 {
					edgeRows = len(st.Band.Rows)
				}
				s.chargeCompute(edgeRows)
				if st.CenterDone {
					st.ComputedIter = in.Iter
				}
			}
			return &Notify{Iter: in.Iter, Worker: in.Dest}
		})
}

func (s *Sim) buildGraphs() error {
	toWorkerRead := core.ByKey[*BorderRead](s.name+"-to-src", func(in *BorderRead) int { return in.Src })
	toWorkerData := core.ByKey[*BorderData](s.name+"-to-dest", func(in *BorderData) int { return in.Dest })

	// --- Simple graph (Figure 7): exchange, global sync, compute. -------
	splitBorders := core.Split[*StepOrder, *BorderRead](s.name+"-split-borders",
		func(c *core.Ctx, in *StepOrder, post func(*BorderRead)) {
			for w := 0; w < s.workers; w++ {
				post(&BorderRead{Iter: in.Iter, Src: s.up(w), Dest: w, Dir: 0})
				post(&BorderRead{Iter: in.Iter, Src: s.down(w), Dest: w, Dir: 1})
			}
		})
	syncMerge := core.Merge[*Notify, *SyncToken](s.name+"-sync",
		func(c *core.Ctx, first *Notify, next func() (*Notify, bool)) *SyncToken {
			iter := first.Iter
			for _, ok := first, true; ok; _, ok = next() {
			}
			return &SyncToken{Iter: iter}
		})
	splitCompute := core.Split[*SyncToken, *ComputeOrder](s.name+"-split-compute",
		func(c *core.Ctx, in *SyncToken, post func(*ComputeOrder)) {
			for w := 0; w < s.workers; w++ {
				post(&ComputeOrder{Iter: in.Iter, Worker: w})
			}
		})
	computeAll := core.Leaf[*ComputeOrder, *Notify](s.name+"-compute-all",
		func(c *core.Ctx, in *ComputeOrder) *Notify {
			st := core.StateOf[workerState](c)
			st.ensureIter(in.Iter)
			st.Band.StepAll(st.Shadow)
			// The borders alias the neighbours' bands: drop them before the
			// iteration ends (see readBorderLeaf).
			st.Band.UpBorder, st.Band.DnBorder = nil, nil
			s.chargeCompute(len(st.Band.Rows))
			st.ComputedIter = in.Iter
			return &Notify{Iter: in.Iter, Worker: in.Worker}
		})
	doneMerge := core.Merge[*Notify, *DoneToken](s.name+"-done",
		func(c *core.Ctx, first *Notify, next func() (*Notify, bool)) *DoneToken {
			iter := first.Iter
			for _, ok := first, true; ok; _, ok = next() {
			}
			return &DoneToken{Iter: iter}
		})

	var err error
	s.simple, err = s.app.NewFlowgraph(s.name+"-step-simple", core.Path(
		core.NewNode(splitBorders, s.master, core.MainRoute()),
		core.NewNode(s.readBorderLeaf(), s.band, toWorkerRead),
		core.NewNode(s.storeBorderLeaf(false, s.name+"-store-border"), s.band, toWorkerData),
		core.NewNode(syncMerge, s.master, core.MainRoute()),
		core.NewNode(splitCompute, s.master, core.MainRoute()),
		core.NewNode(computeAll, s.band, core.ByKey[*ComputeOrder](s.name+"-to-worker", func(in *ComputeOrder) int { return in.Worker })),
		core.NewNode(doneMerge, s.master, core.MainRoute()),
	))
	if err != nil {
		return err
	}

	// --- Improved graph (Figure 8): border exchange overlaps the interior
	// computation; edge rows follow as borders arrive. All border reads are
	// posted before any interior, so no read waits in its worker's queue
	// behind that worker's own interior computation. --------------------
	splitAllImproved := core.SplitAny[*StepOrder](s.name+"-split-improved",
		[]core.Token{(*BorderRead)(nil), (*CenterOrder)(nil)},
		func(c *core.Ctx, in *StepOrder, post func(core.Token)) {
			for w := 0; w < s.workers; w++ {
				post(&BorderRead{Iter: in.Iter, Src: s.up(w), Dest: w, Dir: 0})
				post(&BorderRead{Iter: in.Iter, Src: s.down(w), Dest: w, Dir: 1})
			}
			for w := 0; w < s.workers; w++ {
				post(&CenterOrder{Iter: in.Iter, Worker: w})
			}
		})
	computeCenter := core.Leaf[*CenterOrder, *Notify](s.name+"-compute-center",
		func(c *core.Ctx, in *CenterOrder) *Notify {
			st := core.StateOf[workerState](c)
			st.ensureIter(in.Iter)
			s.chargeCompute(st.Band.StepInterior(st.Shadow))
			st.CenterDone = true
			if st.GotUp && st.GotDn {
				st.ComputedIter = in.Iter
			}
			return &Notify{Iter: in.Iter, Worker: in.Worker}
		})
	doneMergeImp := core.Merge[*Notify, *DoneToken](s.name+"-done-improved",
		func(c *core.Ctx, first *Notify, next func() (*Notify, bool)) *DoneToken {
			iter := first.Iter
			for _, ok := first, true; ok; _, ok = next() {
			}
			return &DoneToken{Iter: iter}
		})

	nSplit := core.NewNode(splitAllImproved, s.master, core.MainRoute())
	nRead := core.NewNode(s.readBorderLeaf(), s.band, toWorkerRead)
	nStore := core.NewNode(s.storeBorderLeaf(true, s.name+"-store-border-edges"), s.band, toWorkerData)
	nCenter := core.NewNode(computeCenter, s.band, core.ByKey[*CenterOrder](s.name+"-to-center", func(in *CenterOrder) int { return in.Worker }))
	nDone := core.NewNode(doneMergeImp, s.master, core.MainRoute())
	s.improve, err = s.app.NewFlowgraph(s.name+"-step-improved",
		core.Path(nSplit, nRead, nStore, nDone).Add(nSplit, nCenter, nDone))
	if err != nil {
		return err
	}

	// --- Load graph: distribute the initial world. ----------------------
	splitLoad := core.Split[*WorldToken, *LoadOrder](s.name+"-split-load",
		func(c *core.Ctx, in *WorldToken, post func(*LoadOrder)) {
			w := &life.World{Width: in.Width, Height: in.Height, Cells: in.Cells}
			for i := 0; i < s.workers; i++ {
				b := life.ExtractBand(w, s.bounds[i], s.bounds[i+1])
				post(&LoadOrder{Worker: i, Top: b.Top, Rows: b.Rows})
			}
		})
	loadLeaf := core.Leaf[*LoadOrder, *Notify](s.name+"-load-band",
		func(c *core.Ctx, in *LoadOrder) *Notify {
			st := core.StateOf[workerState](c)
			st.Band = &life.Band{Width: s.width, Top: in.Top, Rows: in.Rows}
			st.Shadow = st.Band.NewShadow()
			// The next iteration (1) reads the freshly loaded band, so no
			// swap must occur when its tokens arrive.
			st.Iter = 1
			st.ComputedIter = 0
			st.GotUp, st.GotDn, st.CenterDone = false, false, false
			return &Notify{Worker: in.Worker}
		})
	loadMerge := core.Merge[*Notify, *DoneToken](s.name+"-load-done",
		func(c *core.Ctx, first *Notify, next func() (*Notify, bool)) *DoneToken {
			for _, ok := first, true; ok; _, ok = next() {
			}
			return &DoneToken{}
		})
	s.load, err = s.app.NewFlowgraph(s.name+"-load", core.Path(
		core.NewNode(splitLoad, s.master, core.MainRoute()),
		core.NewNode(loadLeaf, s.band, core.ByKey[*LoadOrder](s.name+"-to-load", func(in *LoadOrder) int { return in.Worker })),
		core.NewNode(loadMerge, s.master, core.MainRoute()),
	))
	if err != nil {
		return err
	}

	// --- Gather graph: reassemble the world on the master. --------------
	splitGather := core.Split[*StepOrder, *GatherOrder](s.name+"-split-gather",
		func(c *core.Ctx, in *StepOrder, post func(*GatherOrder)) {
			for i := 0; i < s.workers; i++ {
				post(&GatherOrder{Worker: i})
			}
		})
	gatherLeaf := core.Leaf[*GatherOrder, *BandData](s.name+"-gather-band",
		func(c *core.Ctx, in *GatherOrder) *BandData {
			st := core.StateOf[workerState](c)
			src := st.newestRows()
			rows := make([][]uint8, len(src.Rows))
			for i, r := range src.Rows {
				rows[i] = append([]uint8(nil), r...)
			}
			return &BandData{Worker: in.Worker, Top: src.Top, Rows: rows}
		})
	gatherMerge := core.Merge[*BandData, *WorldToken](s.name+"-gather-merge",
		func(c *core.Ctx, first *BandData, next func() (*BandData, bool)) *WorldToken {
			bands := []*life.Band{}
			for in, ok := first, true; ok; in, ok = next() {
				bands = append(bands, &life.Band{Width: s.width, Top: in.Top, Rows: in.Rows})
			}
			w, err := life.StitchBands(s.width, s.height, bands)
			if err != nil {
				panic(err)
			}
			return &WorldToken{Width: s.width, Height: s.height, Cells: w.Cells}
		})
	s.gather, err = s.app.NewFlowgraph(s.name+"-gather", core.Path(
		core.NewNode(splitGather, s.master, core.MainRoute()),
		core.NewNode(gatherLeaf, s.band, core.ByKey[*GatherOrder](s.name+"-to-gather", func(in *GatherOrder) int { return in.Worker })),
		core.NewNode(gatherMerge, s.master, core.MainRoute()),
	))
	if err != nil {
		return err
	}

	// --- World-read service (Figure 10). --------------------------------
	splitRead := core.Split[*ReadReq, *ReadSeg](s.name+"-split-read",
		func(c *core.Ctx, in *ReadReq, post func(*ReadSeg)) {
			i := 0
			for i < in.H {
				worldRow := (in.Row + i) % s.height
				owner := s.ownerOf(worldRow)
				count := 1
				for i+count < in.H {
					nr := (in.Row + i + count) % s.height
					// The segment must stay contiguous inside one band: stop
					// at band boundaries and at the toroidal wrap.
					if nr != worldRow+count || s.ownerOf(nr) != owner {
						break
					}
					count++
				}
				post(&ReadSeg{Dest: owner, StartI: i, WorldRow: worldRow, Count: count, Col: in.Col, W: in.W})
				i += count
			}
		})
	readSegLeaf := core.Leaf[*ReadSeg, *ReadSegData](s.name+"-read-seg",
		func(c *core.Ctx, in *ReadSeg) *ReadSegData {
			st := core.StateOf[workerState](c)
			band := st.newestRows()
			cells := make([]uint8, in.Count*in.W)
			for i := 0; i < in.Count; i++ {
				src := band.Rows[in.WorldRow+i-band.Top]
				for j := 0; j < in.W; j++ {
					cells[i*in.W+j] = src[(in.Col+j)%s.width]
				}
			}
			return &ReadSegData{StartI: in.StartI, Count: in.Count, W: in.W, Cells: cells}
		})
	readMerge := core.Merge[*ReadSegData, *ReadResp](s.name+"-read-merge",
		func(c *core.Ctx, first *ReadSegData, next func() (*ReadSegData, bool)) *ReadResp {
			resp := &ReadResp{W: first.W}
			parts := []*ReadSegData{}
			for in, ok := first, true; ok; in, ok = next() {
				parts = append(parts, in)
				if in.StartI+in.Count > resp.H {
					resp.H = in.StartI + in.Count
				}
			}
			resp.Cells = make([]uint8, resp.H*resp.W)
			for _, p := range parts {
				copy(resp.Cells[p.StartI*p.W:], p.Cells)
			}
			return resp
		})
	s.read, err = s.app.NewFlowgraph(s.name+"-read", core.Path(
		core.NewNode(splitRead, s.master, core.MainRoute()),
		core.NewNode(readSegLeaf, s.band, core.ByKey[*ReadSeg](s.name+"-to-seg", func(in *ReadSeg) int { return in.Dest })),
		core.NewNode(readMerge, s.master, core.MainRoute()),
	))
	return err
}

// Load distributes the initial world to the workers and resets iteration 0.
func (s *Sim) Load(w *life.World) error {
	if w.Width != s.width || w.Height != s.height {
		return fmt.Errorf("parlife: world is %dx%d, sim is %dx%d", w.Width, w.Height, s.width, s.height)
	}
	s.iter = 0
	_, err := s.load.Call(context.Background(), &WorldToken{Width: w.Width, Height: w.Height, Cells: append([]uint8(nil), w.Cells...)})
	return err
}

// Step advances one generation using the simple or improved graph.
func (s *Sim) Step(improved bool) error {
	s.iter++
	g := s.simple
	if improved {
		g = s.improve
	}
	_, err := g.Call(context.Background(), &StepOrder{Iter: s.iter})
	return err
}

// StepN advances n generations.
func (s *Sim) StepN(n int, improved bool) error {
	for i := 0; i < n; i++ {
		if err := s.Step(improved); err != nil {
			return err
		}
	}
	return nil
}

// Gather reassembles the current world on the master.
func (s *Sim) Gather() (*life.World, error) {
	out, err := s.gather.Call(context.Background(), &StepOrder{})
	if err != nil {
		return nil, err
	}
	wt := out.(*WorldToken)
	return &life.World{Width: wt.Width, Height: wt.Height, Cells: wt.Cells}, nil
}

// ReadBlock reads an h x w sub-grid through the parallel read service.
func (s *Sim) ReadBlock(row, col, h, w int) ([]uint8, error) {
	out, err := s.read.Call(context.Background(), &ReadReq{Row: row, Col: col, H: h, W: w})
	if err != nil {
		return nil, err
	}
	return out.(*ReadResp).Cells, nil
}

// ReadGraph exposes the world-read flow graph so other applications can
// call it as a parallel service.
func (s *Sim) ReadGraph() *core.Flowgraph { return s.read }

// Iter returns the number of completed iterations.
func (s *Sim) Iter() int { return s.iter }

// Workers returns the number of band workers.
func (s *Sim) Workers() int { return s.workers }

// BandCollection exposes the band-worker thread collection, so deployments
// can live-migrate workers between nodes (ThreadCollection.Remap) while the
// simulation runs.
func (s *Sim) BandCollection() *core.ThreadCollection { return s.band }
