package engine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/tile"
)

// BenchmarkRankBreakEven prints the table behind Policy.RankFrac's default
// (README, "adaptive per-tile policy"): what a 256² tile of rank k costs as a
// low-rank tile — the one compression a dense tile never pays, and each
// (Y·V)·Uᵀ apply — against the dense tile's Y·Dᵀ apply, and how many applies
// repay the compression. One worker, fastest of 15.
func BenchmarkRankBreakEven(b *testing.B) {
	const ts, tol = 256, 1e-6
	rng := rand.New(rand.NewSource(1))
	randn := func(r, c int) *linalg.Matrix {
		m := linalg.NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	fastest := func(f func()) float64 {
		best := time.Duration(1 << 62)
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			f()
			best = min(best, time.Since(t0))
		}
		return float64(best) / 1e6
	}
	y, dst := randn(ts, ts), linalg.NewMatrix(ts, ts)
	for _, k := range []int{32, 64, 96, 128} {
		// Numerical rank k at tol: k unit directions over a 1e-9 tail.
		d := randn(ts, ts)
		d.Scale(1e-9 / ts)
		linalg.Gemm(false, true, 1, randn(ts, k), randn(ts, k), 1, d)
		var lr *tile.LowRank
		compress := fastest(func() { lr, _ = tile.CompressNear(d, tol, 0, k) })
		if lr.Rank() != k {
			b.Fatalf("rank %d tile compressed to rank %d", k, lr.Rank())
		}
		w := linalg.NewMatrix(ts, k)
		lrApply := fastest(func() {
			linalg.Gemm(false, false, 1, y, lr.V, 0, w)
			linalg.Gemm(false, true, -1, w, lr.U, 1, dst)
		})
		denseApply := fastest(func() { linalg.Gemm(false, true, -1, y, d, 1, dst) })
		repay := "never"
		if lrApply < denseApply {
			repay = fmt.Sprintf("%.0f", compress/(denseApply-lrApply))
		}
		b.Logf("rank %3d: bytes %.2f of dense, compress %.2f ms, apply %.2f ms low rank vs %.2f dense, repaid after %s applies",
			k, float64(2*k)/ts, compress, lrApply, denseApply, repay)
	}
}
