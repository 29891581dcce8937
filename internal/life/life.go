// Package life implements Conway's Game of Life — the paper's §5 example,
// chosen because "it exhibits a parallel program structure similar to many
// iterative finite difference computational problems". The package provides
// the world data structure, a reference sequential stepper, and the
// band-decomposition helpers (border extraction and stitching) the DPS
// graphs build on.
//
// The world is a flat torus: rows and columns wrap around, so every cell
// has eight neighbours and band decomposition needs border exchange between
// vertically adjacent bands (including the wrap-around pair).
package life

import (
	"fmt"
	"math/rand"
)

// World is a Height x Width grid of cells (1 = alive).
type World struct {
	Width, Height int
	Cells         []uint8
}

// NewWorld allocates a dead world.
func NewWorld(width, height int) *World {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("life: bad world size %dx%d", width, height))
	}
	return &World{Width: width, Height: height, Cells: make([]uint8, width*height)}
}

// RandomWorld fills a world deterministically with the given live-cell
// density in [0, 1].
func RandomWorld(width, height int, density float64, seed int64) *World {
	w := NewWorld(width, height)
	rng := rand.New(rand.NewSource(seed))
	for i := range w.Cells {
		if rng.Float64() < density {
			w.Cells[i] = 1
		}
	}
	return w
}

// At returns the cell at (row, col) without wrapping (caller ensures bounds).
func (w *World) At(row, col int) uint8 { return w.Cells[row*w.Width+col] }

// Set assigns the cell at (row, col).
func (w *World) Set(row, col int, v uint8) { w.Cells[row*w.Width+col] = v }

// Row returns the slice aliasing row r.
func (w *World) Row(r int) []uint8 { return w.Cells[r*w.Width : (r+1)*w.Width] }

// Clone deep-copies the world.
func (w *World) Clone() *World {
	out := NewWorld(w.Width, w.Height)
	copy(out.Cells, w.Cells)
	return out
}

// Equal reports cell-wise equality.
func (w *World) Equal(o *World) bool {
	if w.Width != o.Width || w.Height != o.Height {
		return false
	}
	for i := range w.Cells {
		if w.Cells[i] != o.Cells[i] {
			return false
		}
	}
	return true
}

// Population counts live cells.
func (w *World) Population() int {
	n := 0
	for _, c := range w.Cells {
		if c != 0 {
			n++
		}
	}
	return n
}

// Step computes one generation into a new world (toroidal wrap).
func (w *World) Step() *World {
	out := NewWorld(w.Width, w.Height)
	for r := 0; r < w.Height; r++ {
		up := w.Row((r - 1 + w.Height) % w.Height)
		mid := w.Row(r)
		down := w.Row((r + 1) % w.Height)
		stepRowInto(up, mid, down, out.Row(r))
	}
	return out
}

// StepN advances n generations.
func (w *World) StepN(n int) *World {
	cur := w
	for i := 0; i < n; i++ {
		cur = cur.Step()
	}
	return cur
}

// stepRowInto computes the next state of one row given its upper and lower
// neighbour rows (same width, toroidal column wrap).
//
// It is also dps-perf's yardstick for life_halo: lifeYardBody times
// Band.StepAll, and the workload's time metrics are divided by how much
// slower than nominal the host ran it. A faster kernel here therefore reads
// as a faster host, and life_halo's normalised metrics get worse, not
// better; change it only together with the benchmark.
func stepRowInto(up, mid, down, dst []uint8) {
	width := len(mid)
	for c := 0; c < width; c++ {
		l := (c - 1 + width) % width
		r := (c + 1) % width
		n := int(up[l]) + int(up[c]) + int(up[r]) +
			int(mid[l]) + int(mid[r]) +
			int(down[l]) + int(down[c]) + int(down[r])
		if mid[c] != 0 {
			if n == 2 || n == 3 {
				dst[c] = 1
			} else {
				dst[c] = 0
			}
		} else if n == 3 {
			dst[c] = 1
		} else {
			dst[c] = 0
		}
	}
}

// Band is a horizontal slice of the world held by one worker thread, with
// space for the borders received from the neighbouring bands.
type Band struct {
	Width    int
	Top      int // first world row of the band
	Rows     [][]uint8
	UpBorder []uint8 // last row of the band above (wraps)
	DnBorder []uint8 // first row of the band below (wraps)
}

// BandBounds partitions height rows into n contiguous bands as evenly as
// possible, returning the start row of each band plus a final sentinel.
func BandBounds(height, n int) []int {
	if n <= 0 || height < n {
		panic(fmt.Sprintf("life: cannot split %d rows into %d bands", height, n))
	}
	bounds := make([]int, n+1)
	for i := 0; i <= n; i++ {
		bounds[i] = i * height / n
	}
	return bounds
}

// ExtractBand copies rows [r0, r1) of the world into a Band.
func ExtractBand(w *World, r0, r1 int) *Band {
	b := &Band{Width: w.Width, Top: r0, Rows: make([][]uint8, r1-r0)}
	for i := range b.Rows {
		b.Rows[i] = append([]uint8(nil), w.Row(r0+i)...)
	}
	return b
}

// FirstRow returns a copy of the band's first row (sent to the band above).
func (b *Band) FirstRow() []uint8 { return append([]uint8(nil), b.Rows[0]...) }

// LastRow returns a copy of the band's last row (sent to the band below).
func (b *Band) LastRow() []uint8 { return append([]uint8(nil), b.Rows[len(b.Rows)-1]...) }

// StepInterior computes the next state of the band's interior rows (those
// not touching a border) into dst, which must have the same shape. The
// first and last rows are left untouched; they need the borders.
// It returns the number of rows computed (0 when the band has fewer than 3
// rows).
func (b *Band) StepInterior(dst *Band) int {
	n := 0
	for i := 1; i < len(b.Rows)-1; i++ {
		stepRowInto(b.Rows[i-1], b.Rows[i], b.Rows[i+1], dst.Rows[i])
		n++
	}
	return n
}

// StepEdges computes the band's first and last rows using the exchanged
// borders; call after UpBorder and DnBorder are set.
func (b *Band) StepEdges(dst *Band) {
	if b.UpBorder == nil || b.DnBorder == nil {
		panic("life: StepEdges before borders were exchanged")
	}
	last := len(b.Rows) - 1
	if last == 0 {
		// Single-row band: both neighbours are the borders.
		stepRowInto(b.UpBorder, b.Rows[0], b.DnBorder, dst.Rows[0])
		return
	}
	stepRowInto(b.UpBorder, b.Rows[0], b.Rows[1], dst.Rows[0])
	stepRowInto(b.Rows[last-1], b.Rows[last], b.DnBorder, dst.Rows[last])
}

// StepAll computes the whole band (interior + edges) into dst; borders must
// be present. Used by the "simple" flow graph where computation starts only
// after the global border exchange.
func (b *Band) StepAll(dst *Band) {
	b.StepInterior(dst)
	b.StepEdges(dst)
}

// NewShadow allocates a band with the same shape as b (for the next
// generation's cells).
func (b *Band) NewShadow() *Band {
	out := &Band{Width: b.Width, Top: b.Top, Rows: make([][]uint8, len(b.Rows))}
	for i := range out.Rows {
		out.Rows[i] = make([]uint8, b.Width)
	}
	return out
}

// StitchBands reassembles a world from bands (which must tile it exactly).
func StitchBands(width, height int, bands []*Band) (*World, error) {
	w := NewWorld(width, height)
	covered := 0
	for _, b := range bands {
		for i, row := range b.Rows {
			if b.Top+i >= height || len(row) != width {
				return nil, fmt.Errorf("life: band at %d does not fit %dx%d world", b.Top, width, height)
			}
			copy(w.Row(b.Top+i), row)
			covered++
		}
	}
	if covered != height {
		return nil, fmt.Errorf("life: bands cover %d of %d rows", covered, height)
	}
	return w, nil
}

// SubGrid copies the h x w rectangle at (row, col) with toroidal wrap —
// the world-state read served by the paper's parallel service (Table 2).
func (w *World) SubGrid(row, col, h, wd int) []uint8 {
	out := make([]uint8, h*wd)
	for i := 0; i < h; i++ {
		src := w.Row((row + i) % w.Height)
		for j := 0; j < wd; j++ {
			out[i*wd+j] = src[(col+j)%w.Width]
		}
	}
	return out
}
