package tile

import (
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
)

func entryOf(a *linalg.Matrix) func(i, j int) float64 {
	return func(i, j int) float64 { return a.At(i, j) }
}

// runsOf reads a materialized tile the way CompressACAConv does: whole rows
// and whole columns.
func runsOf(a *linalg.Matrix) (row, col func(dst []float64, i int)) {
	row = func(dst []float64, i int) {
		for j := range dst {
			dst[j] = a.At(i, j)
		}
	}
	col = func(dst []float64, j int) { copy(dst, a.Col(j)) }
	return row, col
}

func TestACAExactForLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randDense(18, 3, rng)
	v := randDense(14, 3, rng)
	a := linalg.NewMatrix(18, 14)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	lt := CompressACA(18, 14, entryOf(a), 1e-10, 0)
	if lt.Rank() > 4 {
		t.Errorf("rank-3 matrix compressed to ACA rank %d", lt.Rank())
	}
	if d := lt.Dense().MaxAbsDiff(a); d > 1e-8*a.FrobNorm() {
		t.Errorf("ACA reconstruction diff %v", d)
	}
}

func TestACAOnCovarianceTile(t *testing.T) {
	g := geo.RegularGrid(12, 12)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.1})
	blk := sigma.View(72, 0, 72, 72).Clone()
	for _, tol := range []float64{1e-2, 1e-4, 1e-7} {
		lt := CompressACA(72, 72, entryOf(blk), tol, 0)
		err := lt.Dense().MaxAbsDiff(blk)
		// ACA's stopping rule is heuristic; allow a modest constant over the
		// requested tolerance.
		if err > 20*tol*blk.FrobNorm() {
			t.Errorf("tol=%g: ACA error %v (rank %d)", tol, err, lt.Rank())
		}
	}
}

func TestACARankComparableToSVD(t *testing.T) {
	g := geo.RegularGrid(12, 12)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.234})
	blk := sigma.View(72, 0, 72, 72).Clone()
	svdRank := Compress(blk, 1e-4, 0).Rank()
	acaRank := CompressACA(72, 72, entryOf(blk), 1e-4, 0).Rank()
	// The post-ACA recompression should bring the rank close to optimal.
	if acaRank > 2*svdRank+4 {
		t.Errorf("ACA rank %d far above SVD rank %d", acaRank, svdRank)
	}
}

func TestACAZeroMatrix(t *testing.T) {
	lt := CompressACA(6, 8, func(i, j int) float64 { return 0 }, 1e-6, 0)
	if lt.Rank() != 0 {
		t.Errorf("zero matrix ACA rank %d", lt.Rank())
	}
}

func TestACAMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(16, 16, rng)
	lt := CompressACA(16, 16, entryOf(a), 1e-15, 5)
	if lt.Rank() > 5 {
		t.Errorf("rank %d exceeds cap 5", lt.Rank())
	}
}

func TestACADegenerateShapes(t *testing.T) {
	// Single row / column tiles.
	row := CompressACA(1, 6, func(i, j int) float64 { return float64(j + 1) }, 1e-12, 0)
	if row.Rank() != 1 {
		t.Errorf("1×6 rank %d", row.Rank())
	}
	want := linalg.NewMatrix(1, 6)
	for j := 0; j < 6; j++ {
		want.Set(0, j, float64(j+1))
	}
	if d := row.Dense().MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("1×6 reconstruction diff %v", d)
	}
	col := CompressACA(5, 1, func(i, j int) float64 { return float64(i) - 2 }, 1e-12, 0)
	if col.Rank() != 1 {
		t.Errorf("5×1 rank %d", col.Rank())
	}
}

// TestACAResidualCheckCatchesUnseenBlock: partial pivoting picks each next row
// inside the last pivot column's support, so on a block-diagonal tile it
// converges on the first block without ever reading the second. The cross
// iteration's own estimate says converged; the sampled residual must not.
func TestACAResidualCheckCatchesUnseenBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const h = 32
	a := linalg.NewMatrix(2*h, 2*h)
	a.View(0, 0, h, h).CopyFrom(lowRankPlusNoise(h, h, 3, 1e-12, rng))
	a.View(h, h, h, h).CopyFrom(lowRankPlusNoise(h, h, 3, 1e-12, rng))
	row, col := runsOf(a)
	lr, ok := CompressACAConv(2*h, 2*h, row, col, 1e-6, 0)
	if miss := lr.Dense().MaxAbsDiff(a); miss < 1e-2*a.FrobNorm() {
		t.Fatalf("the tile no longer defeats partial pivoting (error %g): pick another", miss)
	}
	if ok {
		t.Error("ACA missed half the tile and still reported convergence")
	}
	// An honest tile passes the same check at every tolerance.
	lo := lowRankPlusNoise(2*h, 2*h, 5, 1e-9, rng)
	row, col = runsOf(lo)
	for _, tol := range []float64{1e-2, 1e-4, 1e-6} {
		if _, ok := CompressACAConv(2*h, 2*h, row, col, tol, 0); !ok {
			t.Errorf("tol=%g: a rank-5 tile failed the residual check", tol)
		}
	}
}
