package bench

import (
	"strconv"
	"testing"

	"repro/internal/race"
)

// The experiment harness runs in Quick mode here; assertions check the
// qualitative shapes the paper reports, with slack for timing noise.

func cell(t *testing.T, r *Report, row, col int) string {
	t.Helper()
	if row >= len(r.Table.Rows) || col >= len(r.Table.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in table\n%s", r.ID, row, col, r.Table)
	}
	return r.Table.Rows[row][col]
}

func cellF(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, r, row, col), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", r.ID, row, col, cell(t, r, row, col))
	}
	return v
}

func TestFigure6Shape(t *testing.T) {
	if race.Enabled {
		t.Skip("timing-based shape assertions are skipped under the race detector")
	}
	r, err := Figure6(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if len(r.Table.Rows) < 3 {
		t.Fatalf("expected >= 3 sizes, got %d", len(r.Table.Rows))
	}
	first := cellF(t, r, 0, 3)                  // DPS/raw at smallest size
	last := cellF(t, r, len(r.Table.Rows)-1, 3) // at largest size
	if last <= first {
		t.Errorf("DPS/raw ratio should rise with block size: %.2f -> %.2f", first, last)
	}
	if last < 0.6 {
		t.Errorf("DPS should approach the raw rate for large blocks, ratio %.2f", last)
	}
	// Throughput itself must rise with block size for both columns.
	if cellF(t, r, len(r.Table.Rows)-1, 1) <= cellF(t, r, 0, 1) {
		t.Error("DPS throughput did not grow with block size")
	}
}

func TestTable1Shape(t *testing.T) {
	if race.Enabled {
		t.Skip("timing-based shape assertions are skipped under the race detector")
	}
	r, err := Table1(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// Ratio grows with splitting factor s for fixed node count (paper's
	// rows) — check the first worker block.
	if !(cellF(t, r, 2, 4) > cellF(t, r, 0, 4)) {
		t.Errorf("comm/comp ratio should grow with s: %.2f -> %.2f",
			cellF(t, r, 0, 4), cellF(t, r, 2, 4))
	}
	// Meaningful overlap benefit somewhere (paper: up to 35.6%).
	best := 0.0
	for i := range r.Table.Rows {
		if v := cellF(t, r, i, 3); v > best {
			best = v
		}
	}
	if best < 15 {
		t.Errorf("best reduction %.1f%% too small; overlap is not working", best)
	}
}

func TestFigure9Shape(t *testing.T) {
	if race.Enabled {
		t.Skip("timing-based shape assertions are skipped under the race detector")
	}
	r, err := Figure9(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// Layout: for each world, simple rows then improved rows, nodesList
	// entries each. Recover structure from the table.
	type key struct{ world, variant string }
	times := map[key][]float64{}
	order := []key{}
	for i := range r.Table.Rows {
		k := key{cell(t, r, i, 0), cell(t, r, i, 1)}
		if _, ok := times[k]; !ok {
			order = append(order, k)
		}
		times[k] = append(times[k], cellF(t, r, i, 3))
	}
	// Improved must beat (or match within noise) simple at the highest
	// node count for every world.
	for _, k := range order {
		if k.variant != "simple" {
			continue
		}
		imp := times[key{k.world, "improved"}]
		simp := times[k]
		if len(imp) == 0 || len(simp) == 0 {
			t.Fatalf("missing rows for world %s", k.world)
		}
		lastS, lastI := simp[len(simp)-1], imp[len(imp)-1]
		if lastI > lastS*1.15 {
			t.Errorf("world %s: improved (%.2fms) slower than simple (%.2fms) at max nodes", k.world, lastI, lastS)
		}
	}
	// The large world must gain from parallelism.
	kLarge := order[len(order)-1]
	tl := times[kLarge]
	if tl[len(tl)-1] >= tl[0] {
		t.Errorf("large world shows no parallel gain: %v", tl)
	}
}

func TestTable2Shape(t *testing.T) {
	if race.Enabled {
		t.Skip("timing-based shape assertions are skipped under the race detector")
	}
	r, err := Table2(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if len(r.Table.Rows) < 3 {
		t.Fatalf("expected baseline + >= 2 block sizes")
	}
	// Call time grows with block size.
	small := cellF(t, r, 1, 1)
	large := cellF(t, r, 2, 1)
	if large <= small {
		t.Errorf("call time should grow with block size: %.2f -> %.2f ms", small, large)
	}
	// Calls/s falls as blocks grow.
	if cellF(t, r, 2, 3) >= cellF(t, r, 1, 3) {
		t.Errorf("calls/s should fall with block size")
	}
}

// TestFigure15Shape checks the figure's structure only. Its times are wall
// clock — parlin's LU kernels run for real and have no modelled-compute hook
// like parlife.Options.CellCost — so which variant wins at four virtual nodes
// is decided by the host's cores, not by the engine: the comparison is
// logged for the reader, not asserted (both variants' factorizations are
// verified in internal/parlin).
func TestFigure15Shape(t *testing.T) {
	if race.Enabled {
		t.Skip("two LU factorizations per row are slow under the race detector; internal/parlin race-tests the graphs")
	}
	r, err := Figure15(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	n := len(r.Table.Rows) / 2
	if n < 2 || len(r.Table.Rows) != 2*n {
		t.Fatalf("%d rows, want the same node counts for both variants", len(r.Table.Rows))
	}
	for i, row := range r.Table.Rows {
		want := "pipelined"
		if i >= n {
			want = "non-pipelined"
		}
		if row[0] != want || row[1] != r.Table.Rows[i%n][1] {
			t.Errorf("row %d is %v, want variant %s at the node count of row %d", i, row, want, i%n)
		}
		if ms, speedup := cellF(t, r, i, 2), cellF(t, r, i, 3); ms <= 0 || speedup <= 0 {
			t.Errorf("row %d: time %vms, speedup %v", i, ms, speedup)
		}
	}
	if base := cellF(t, r, 0, 3); base != 1 {
		t.Errorf("one-node speedup = %v, want 1", base)
	}
}
