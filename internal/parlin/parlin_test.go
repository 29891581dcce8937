package parlin

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func localApp(t testing.TB, nodes int) *core.App {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	app, err := core.NewLocalApp(core.Config{}, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

func TestMatmulMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, s, nodes int }{
		{16, 2, 1},
		{16, 4, 2},
		{32, 4, 3},
		{24, 3, 4},
		{32, 1, 2}, // single block
	} {
		app := localApp(t, tc.nodes)
		mm, err := NewMatmul(app, MatmulOptions{Name: fmt.Sprintf("mm-%d-%d", tc.n, tc.s)})
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(tc.n, tc.n, int64(tc.n))
		b := matrix.Random(tc.n, tc.n, int64(tc.n+1))
		got, err := mm.Run(a, b, tc.s, true)
		if err != nil {
			t.Fatalf("n=%d s=%d: %v", tc.n, tc.s, err)
		}
		want := a.Mul(b)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("n=%d s=%d: max diff %g", tc.n, tc.s, d)
		}
	}
}

func TestMatmulCommOnly(t *testing.T) {
	app := localApp(t, 2)
	mm, err := NewMatmul(app, MatmulOptions{Name: "mm-comm"})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(16, 16, 1)
	b := matrix.Random(16, 16, 2)
	got, err := mm.Run(a, b, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	// Communication-only run moves the same tokens but computes zeros.
	zero := matrix.New(16, 16)
	if d := got.MaxAbsDiff(zero); d != 0 {
		t.Fatalf("comm-only result non-zero: %g", d)
	}
}

func TestMatmulRejectsBadShapes(t *testing.T) {
	app := localApp(t, 1)
	mm, err := NewMatmul(app, MatmulOptions{Name: "mm-bad"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Run(matrix.New(4, 5), matrix.New(5, 4), 2, true); err == nil {
		t.Fatal("expected shape error")
	}
	// N not divisible by S surfaces as an app failure.
	if _, err := mm.Run(matrix.Random(10, 10, 1), matrix.Random(10, 10, 2), 3, true); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func luCheck(t *testing.T, n, r, nodes, workers int, pipelined bool) {
	t.Helper()
	app := localApp(t, nodes)
	lu, err := NewLU(app, n, r, LUOptions{
		Name:      fmt.Sprintf("lu-%d-%d-%v", n, r, pipelined),
		Workers:   workers,
		Pipelined: pipelined,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(n, n, int64(n*10+r))
	fact, piv, err := lu.Factor(a)
	if err != nil {
		t.Fatalf("n=%d r=%d pipelined=%v: %v", n, r, pipelined, err)
	}
	if res := matrix.ResidualLU(a, fact, piv); res > 1e-8*float64(n) {
		t.Fatalf("n=%d r=%d pipelined=%v: residual %g", n, r, pipelined, res)
	}
	// The distributed algorithm performs the same operations in the same
	// per-element order as the sequential block algorithm, so factors and
	// pivots must match it (tolerance only for accumulated reordering in
	// the trailing update, which does not occur — exact match expected).
	ref := a.Clone()
	if _, err := matrix.BlockLUFactor(ref, r); err != nil {
		t.Fatal(err)
	}
	if d := fact.MaxAbsDiff(ref); d > 1e-10 {
		t.Fatalf("n=%d r=%d pipelined=%v: factors differ from sequential block LU by %g", n, r, pipelined, d)
	}
}

func TestLUPipelinedMatchesReference(t *testing.T) {
	luCheck(t, 16, 4, 2, 2, true)
	luCheck(t, 32, 4, 4, 4, true)
	luCheck(t, 24, 4, 3, 3, true)
	luCheck(t, 32, 8, 2, 2, true)
}

func TestLUNonPipelinedMatchesReference(t *testing.T) {
	luCheck(t, 16, 4, 2, 2, false)
	luCheck(t, 32, 4, 4, 4, false)
}

func TestLUSingleBlock(t *testing.T) {
	luCheck(t, 8, 8, 1, 1, true)
	luCheck(t, 8, 8, 1, 1, false)
}

func TestLUSingleWorkerManyBlocks(t *testing.T) {
	luCheck(t, 32, 4, 1, 1, true)
}

func TestLUMoreWorkersThanColumns(t *testing.T) {
	luCheck(t, 16, 8, 4, 4, true) // 2 block columns on 4 workers
}

func TestLURepeatedFactorizations(t *testing.T) {
	app := localApp(t, 2)
	lu, err := NewLU(app, 16, 4, LUOptions{Name: "lu-repeat", Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		a := matrix.Random(16, 16, int64(trial))
		fact, piv, err := lu.Factor(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res := matrix.ResidualLU(a, fact, piv); res > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, res)
		}
	}
}

func TestLUOverSimnet(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 200e6, Latency: 20 * time.Microsecond})
	defer net.Close()
	trs, err := transport.SimNodes(net, "s0", "s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	app, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	lu, err := NewLU(app, 24, 4, LUOptions{Name: "lu-simnet", Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(24, 24, 55)
	fact, piv, err := lu.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if res := matrix.ResidualLU(a, fact, piv); res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}

func TestLURejectsBadShapes(t *testing.T) {
	app := localApp(t, 1)
	if _, err := NewLU(app, 10, 3, LUOptions{Name: "lu-bad"}); err == nil {
		t.Fatal("expected divisibility error")
	}
	lu, err := NewLU(app, 8, 4, LUOptions{Name: "lu-ok"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lu.Factor(matrix.New(4, 4)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestLUGraphGeneratedToFit(t *testing.T) {
	app := localApp(t, 2)
	lu4, err := NewLU(app, 16, 4, LUOptions{Name: "fit4"})
	if err != nil {
		t.Fatal(err)
	}
	lu2, err := NewLU(app, 16, 8, LUOptions{Name: "fit2"})
	if err != nil {
		t.Fatal(err)
	}
	if lu4.Blocks() != 4 || lu2.Blocks() != 2 {
		t.Fatalf("blocks: %d, %d", lu4.Blocks(), lu2.Blocks())
	}
	// More block columns -> longer generated chain.
	if lu4.Graph().NodeCount() <= lu2.Graph().NodeCount() {
		t.Fatalf("graph sizes: %d vs %d", lu4.Graph().NodeCount(), lu2.Graph().NodeCount())
	}
}
