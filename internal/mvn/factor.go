// Package mvn computes high-dimensional multivariate normal probabilities
// Φn(a,b;0,Σ) with the Separation-of-Variables (SOV) algorithm of Genz,
// parallelized exactly as in the paper: a tiled QMC kernel on the diagonal
// tile rows (Algorithm 3), task-parallel GEMM propagation to the rows below
// (Algorithm 2), over a tile Cholesky factor whose off-diagonal tiles are
// dense or low rank. The points are the Richtmyer lattice with random shifts;
// the sequential reference and the plain Monte Carlo oracle the integration is
// validated against live with the tests.
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
// is exactly where the paper's TLR speedup materializes.
//
// The dense float64 off-diagonal tiles are stored the way those GEMMs read
// them: NewFactor re-lays each one, in place, into the micro-kernel's B-panel
// order (a tile.PackedF64 over the same storage), so no product packs it
// again. Every tile is held once, so the factor's payload is its grid's
// (engine.Grid.Bytes). The diagonal tiles stay
// column-major. Whatever reads a packed tile as a matrix — the store's
// codec — unpacks it, so the stored file is the column-major grid's.
type Factor struct {
	G *engine.Grid
}

// NewFactor wraps a factored engine grid, packing its dense float64
// strictly-lower tiles (see Factor). Tiles already packed, by an earlier
// NewFactor on the same grid, are left as they are.
func NewFactor(g *engine.Grid) *Factor {
	for i := 0; i < g.NT; i++ {
		for j := 0; j < i; j++ {
			if t, ok := g.At(i, j).(*tile.DenseF64); ok {
				g.Set(i, j, &tile.PackedF64{P: linalg.PackBInPlace(t.D)})
			}
		}
	}
	return &Factor{G: g}
}

// N returns the problem dimension.
func (f *Factor) N() int { return f.G.N }

// TS returns the tile size.
func (f *Factor) TS() int { return f.G.TS }

// NT returns the number of tile rows.
func (f *Factor) NT() int { return f.G.NT }

// TileRows returns the number of rows in tile row i.
func (f *Factor) TileRows(i int) int { return f.G.TileRows(i) }

// Diag returns the dense diagonal tile k of L (lower triangular).
func (f *Factor) Diag(k int) *linalg.Matrix { return f.G.Diag(k) }

// ApplyOffDiagLanes computes dst = alpha·y·L(i,j)ᵀ + beta·dst for the
// strictly-lower tile (i,j), i > j, in the lane-major (chains × rows)
// layout of the chain-blocked sweep: y holds the source tile's
// conditioning values — as the packed GEMM operand the sweep keeps them
// in, as a dense L(i,j) is kept packed (see Factor), so an apply packs
// neither — and dst the accumulated conditioning sums the A/B limits of
// Algorithm 2 are shifted by. (The A and B limits share one conditioning sum, so a
// single accumulation replaces the seed's paired A/B tile updates — half
// the propagation GEMMs; beta = 0 overwrites dst, sparing the sweep a
// zeroing pass over pooled scratch.)
func (f *Factor) ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix) {
	switch t := f.G.At(i, j).(type) {
	case *tile.PackedF64:
		linalg.GemmPackedAB(alpha, y, t.P, beta, dst)
	case *tile.LowRank:
		t.ApplyRightTransPacked(alpha, y, beta, dst)
	}
}
