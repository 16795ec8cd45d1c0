package tile_test

import (
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// failingSVD is a Golub–Reinsch run whose QR iteration never converges.
func failingSVD(a, v *linalg.Matrix, s []float64) bool { return false }

// TestGolubReinschFailureKeepsTilesDense: with the core SVD failing, every
// compressor reports failure instead of returning a tile, and a factorization
// under the adaptive policy — ACA probes on a kernel, CompressWithin on an
// explicit Σ, CompressNear after the Schur updates — succeeds with every tile
// the working SVD made low rank stored dense.
func TestGolubReinschFailureKeepsTilesDense(t *testing.T) {
	const side, ts, tol = 32, 64, 1e-4
	g := geo.RegularGrid(side, side)
	k := cov.NewMatern(1, 0.1, 1.5)
	sigma := cov.Matrix(g, k)
	n := g.Len()
	kernelFill := func(dst []float64, row0, j int) { cov.Fill(k, dst, g.Pts[row0:row0+len(dst)], g.Pts[j]) }
	sigmaFill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	blk := linalg.NewMatrix(ts, ts)
	cov.Block(blk, g, k, 3*ts, 0)
	row := func(dst []float64, i int) { kernelFill(dst, 0, 3*ts+i) }
	col := func(dst []float64, j int) { kernelFill(dst, 3*ts, j) }

	rt := taskrt.New(2)
	defer rt.Shutdown()
	adaptive := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.25}
	factor := func(fill engine.RunFill, inMemory bool) *engine.Grid {
		t.Helper()
		grid := engine.NewGrid(n, ts)
		if err := engine.PotrfStream(rt, grid, adaptive.EntryAssembler(grid, fill, inMemory)); err != nil {
			t.Fatalf("inMemory=%v: %v", inMemory, err)
		}
		return grid
	}
	working := map[bool]*engine.Grid{false: factor(kernelFill, false), true: factor(sigmaFill, true)}
	if lr, ok := tile.CompressNear(blk, tol, ts/2, 0); !ok || lr == nil {
		t.Fatal("the working SVD does not compress the test block")
	}
	if _, ok := tile.CompressACAConv(ts, ts, row, col, tol, ts/2); !ok {
		t.Fatal("ACA does not converge on the test block with the working SVD")
	}

	defer tile.SwapSVD(failingSVD)()
	if lr, ok := tile.CompressNear(blk, tol, ts/2, 0); ok || lr != nil {
		t.Errorf("CompressNear with a failing SVD: tile %v, ok %v; want nil, false", lr, ok)
	}
	if lr, ok := tile.CompressWithin(blk, tol, ts/2); ok || lr != nil {
		t.Errorf("CompressWithin with a failing SVD: tile %v, ok %v; want nil, false", lr, ok)
	}
	if _, ok := tile.CompressACAConv(ts, ts, row, col, tol, ts/2); ok {
		t.Error("CompressACAConv reports convergence with a failing SVD")
	}
	for inMemory, fill := range map[bool]engine.RunFill{false: kernelFill, true: sigmaFill} {
		before, after := working[inMemory], factor(fill, inMemory)
		if before.Mix().LowRank == 0 {
			t.Fatalf("inMemory=%v: the working SVD made no tile low rank; the test checks nothing", inMemory)
		}
		if lr := after.Mix().LowRank; lr != 0 {
			t.Errorf("inMemory=%v: %d low-rank tiles with a failing SVD", inMemory, lr)
		}
		for i := 0; i < after.NT; i++ {
			for j := 0; j < i; j++ {
				if _, lr := before.At(i, j).(*tile.LowRank); !lr {
					continue
				}
				if _, dense := after.At(i, j).(*tile.DenseF64); !dense {
					t.Errorf("inMemory=%v: tile (%d,%d) is %T with a failing SVD, want it dense", inMemory, i, j, after.At(i, j))
				}
			}
		}
	}
}
