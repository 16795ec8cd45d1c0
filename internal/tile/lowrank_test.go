package tile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

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
