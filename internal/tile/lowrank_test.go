package tile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
)

func randDense(r, c int, rng *rand.Rand) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestApplyRightTransPackedMatchesDense pins both forms of the sweep's
// low-rank apply — the packed one the sweep calls and the matrix one the
// benchmark probes — against alpha·b·Dense()ᵀ + beta·c on rank-0, rank-1 and
// full-rank tiles, ragged lane counts, and beta 0 over undefined contents.
func TestApplyRightTransPackedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, n = 40, 24 // tile rows × cols: c is lanes×m, b is lanes×n
	for _, rank := range []int{0, 1, n} {
		lr := &LowRank{M: m, N: n}
		if rank > 0 {
			lr.U, lr.V = randDense(m, rank, rng), randDense(n, rank, rng)
		}
		dense := lr.Dense()
		for _, lanes := range []int{1, 7, 64} {
			b := randDense(lanes, n, rng)
			buf := make([]float64, linalg.PackedLen(lanes, n))
			pb := linalg.PackedOver(buf, lanes, n)
			pb.Pack(b, 0)
			for _, beta := range []float64{0, 1, 0.5} {
				want := randDense(lanes, m, rng)
				packed, matrix := want.Clone(), want.Clone()
				if beta == 0 {
					packed.Fill(math.NaN())
					matrix.Fill(math.NaN())
				}
				linalg.Gemm(false, true, -2, b, dense, beta, want)
				lr.ApplyRightTransPacked(-2, pb, beta, packed)
				lr.ApplyRightTrans(-2, b, beta, matrix)
				scale := math.Max(want.FrobNorm(), 1)
				if d := packed.MaxAbsDiff(want) / scale; !(d <= 1e-13) {
					t.Errorf("rank %d lanes %d beta %g: packed apply rel diff %g", rank, lanes, beta, d)
				}
				if d := matrix.MaxAbsDiff(packed); d != 0 {
					t.Errorf("rank %d lanes %d beta %g: matrix form differs from packed by %g", rank, lanes, beta, d)
				}
			}
		}
	}
}

// covGrid builds an exponential-kernel covariance on a k×k grid — the tile
// structure the paper compresses.
func covGrid(k int, rang float64) (*geo.Geom, *linalg.Matrix) {
	g := geo.RegularGrid(k, k)
	return g, cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: rang})
}

func TestCompressExactForLowRankInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randDense(20, 3, rng)
	v := randDense(15, 3, rng)
	a := linalg.NewMatrix(20, 15)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	lt := Compress(a, 1e-12, 0)
	if lt.Rank() > 3 {
		t.Errorf("rank-3 matrix compressed to rank %d", lt.Rank())
	}
	if d := lt.Dense().MaxAbsDiff(a); d > 1e-10 {
		t.Errorf("reconstruction diff %v", d)
	}
}

func TestCompressRespectsTolerance(t *testing.T) {
	_, sigma := covGrid(12, 0.1)
	blk := sigma.View(72, 0, 72, 72).Clone()
	for _, tol := range []float64{1e-1, 1e-3, 1e-6, 1e-9} {
		lt := Compress(blk, tol, 0)
		err := lt.Dense().MaxAbsDiff(blk)
		// Frobenius-relative truncation bounds the max error loosely.
		bound := tol * blk.FrobNorm()
		if err > bound+1e-12 {
			t.Errorf("tol=%g: error %v exceeds bound %v (rank %d)", tol, err, bound, lt.Rank())
		}
	}
	// Ranks must grow as the tolerance tightens.
	r1 := Compress(blk, 1e-1, 0).Rank()
	r2 := Compress(blk, 1e-6, 0).Rank()
	if r1 >= r2 {
		t.Errorf("rank did not grow with accuracy: %d vs %d", r1, r2)
	}
}

func TestCompressMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(16, 16, rng) // full rank
	lt := Compress(a, 1e-12, 5)
	if lt.Rank() != 5 {
		t.Errorf("rank %d, want capped at 5", lt.Rank())
	}
}

func TestCompressZeroTile(t *testing.T) {
	lt := Compress(linalg.NewMatrix(8, 6), 1e-3, 0)
	if lt.Rank() != 0 {
		t.Errorf("zero tile rank %d", lt.Rank())
	}
	if d := lt.Dense().FrobNorm(); d != 0 {
		t.Errorf("zero tile dense norm %v", d)
	}
}

func TestAddLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(12, 10, rng)
	lt := Compress(a, 1e-12, 0)
	u2, v2 := randDense(12, 2, rng), randDense(10, 2, rng)
	want := a.Clone()
	linalg.Gemm(false, true, -2.5, u2, v2, 1, want)
	lt.AddLowRank(-2.5, u2, v2, 1e-12, 0)
	if d := lt.Dense().MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("AddLowRank diff %v", d)
	}
}

func TestAddLowRankCancellation(t *testing.T) {
	// Adding the exact negative must collapse the rank to ~0.
	rng := rand.New(rand.NewSource(4))
	u, v := randDense(10, 4, rng), randDense(8, 4, rng)
	a := linalg.NewMatrix(10, 8)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	lt := Compress(a, 1e-12, 0)
	lt.AddLowRank(-1, u, v, 1e-10, 0)
	if d := lt.Dense().FrobNorm(); d > 1e-8 {
		t.Errorf("cancellation left norm %v (rank %d)", d, lt.Rank())
	}
}

func TestApplyRightTransMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(9, 7, rng) // tile A ≈ U·Vᵀ, 9×7
	lt := Compress(a, 1e-13, 0)
	b := randDense(5, 7, rng) // lanes × tile cols
	c := randDense(5, 9, rng)
	want := c.Clone()
	linalg.Gemm(false, true, -1, b, a, 1, want) // c += -1·b·Aᵀ
	lt.ApplyRightTrans(-1, b, 1, c)
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("ApplyRightTrans diff %v", d)
	}
	// beta = 0 overwrites, matching the dense form.
	linalg.Gemm(false, true, 2, b, a, 0, want)
	lt.ApplyRightTrans(2, b, 0, c)
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("ApplyRightTrans beta=0 diff %v", d)
	}
}

func TestApplyRightTransZeroRank(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	z := &LowRank{M: 9, N: 7}
	b := randDense(5, 7, rng)
	c := randDense(5, 9, rng)
	// beta = 1: no-op.
	before := c.Clone()
	z.ApplyRightTrans(1, b, 1, c)
	if d := c.MaxAbsDiff(before); d != 0 {
		t.Error("zero-rank beta=1 modified output")
	}
	// beta = 0.5: pure scaling; beta = 0: fully zeroes c.
	z.ApplyRightTrans(3, b, 0.5, c)
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < c.Rows; i++ {
			if c.At(i, j) != 0.5*before.At(i, j) {
				t.Fatalf("zero-rank beta=0.5 wrong at (%d,%d)", i, j)
			}
		}
	}
	z.ApplyRightTrans(3, b, 0, c)
	if n := c.FrobNorm(); n != 0 {
		t.Errorf("zero-rank beta=0 left norm %v", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(6, 6, rng)
	lt := Compress(a, 1e-12, 0)
	cl := lt.Clone()
	if lt.Rank() > 0 {
		lt.U.Set(0, 0, 999)
		if cl.U.At(0, 0) == 999 {
			t.Error("clone shares storage")
		}
	}
}
