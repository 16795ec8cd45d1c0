// Package mvn computes high-dimensional multivariate normal probabilities
// Φn(a,b;0,Σ) with the Separation-of-Variables (SOV) algorithm of Genz,
// parallelized exactly as in the paper: a tiled QMC kernel on the diagonal
// tile rows (Algorithm 3), task-parallel GEMM propagation to the rows below
// (Algorithm 2), over a tile Cholesky factor whose off-diagonal tiles are
// dense or low rank. A sequential reference implementation and a plain
// Monte Carlo estimator serve as baselines and validation oracles.
package mvn

import (
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/tile"
)

// Factor is the lower Cholesky factor the PMVN integration consumes: a
// factored engine grid, its tiles in whatever mix of representations the
// layout chose (all dense float64 for the dense method, low rank off the
// diagonal for TLR, per tile for the adaptive policy). The integration needs
// only two things from L: dense diagonal tiles (for the QMC kernel) and the
// action of off-diagonal tiles on a lane block of Y values (for the GEMM
// propagation), applied to each tile in its own representation — a dense
// GEMM for float64 tiles, the cheap (Y·V)·Uᵀ form for low-rank tiles, which
// is exactly where the paper's TLR speedup materializes. Float32 tiles are
// promoted to float64 once at construction so the hot path never pays
// per-application conversions.
type Factor struct {
	G    *engine.Grid
	f32  [][]*linalg.Matrix // promoted float32 tiles, nil elsewhere
	sh32 shadowBox
}

// NewFactor wraps a factored engine grid.
func NewFactor(g *engine.Grid) *Factor {
	f := &Factor{G: g, f32: make([][]*linalg.Matrix, g.NT)}
	for i := 0; i < g.NT; i++ {
		f.f32[i] = make([]*linalg.Matrix, i)
		for j := 0; j < i; j++ {
			if t, ok := g.At(i, j).(*tile.DenseF32); ok {
				f.f32[i][j] = t.D.ToDouble()
			}
		}
	}
	return f
}

// N returns the problem dimension.
//repro:noalloc
func (f *Factor) N() int { return f.G.N }

// TS returns the tile size.
//repro:noalloc
func (f *Factor) TS() int { return f.G.TS }

// NT returns the number of tile rows.
//repro:noalloc
func (f *Factor) NT() int { return f.G.NT }

// TileRows returns the number of rows in tile row i.
//repro:noalloc
func (f *Factor) TileRows(i int) int { return f.G.TileRows(i) }

// Diag returns the dense diagonal tile k of L (lower triangular).
//repro:noalloc
func (f *Factor) Diag(k int) *linalg.Matrix { return f.G.Diag(k) }

// ApplyOffDiagLanes computes dst = alpha·y·L(i,j)ᵀ + beta·dst for the
// strictly-lower tile (i,j), i > j, in the lane-major (chains × rows)
// layout of the chain-blocked sweep: y holds the source tile's
// conditioning values — as the packed GEMM operand the sweep keeps them
// in, so no apply re-packs them — and dst the accumulated conditioning
// sums the A/B limits of Algorithm 2 are shifted by. (The A and B limits
// share one conditioning sum, so a single accumulation replaces the
// seed's paired A/B tile updates — half the propagation GEMMs; beta = 0
// overwrites dst, sparing the sweep a zeroing pass over pooled scratch.)
//repro:noalloc
func (f *Factor) ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix) {
	switch t := f.G.At(i, j).(type) {
	case *tile.DenseF64:
		linalg.GemmPackedA(alpha, y, true, t.D, beta, dst)
	case *tile.LowRank:
		t.ApplyRightTransPacked(alpha, y, beta, dst)
	case *tile.DenseF32:
		linalg.GemmPackedA(alpha, y, true, f.f32[i][j], beta, dst)
	}
}
