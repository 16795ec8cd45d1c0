// Package mvn computes high-dimensional multivariate normal probabilities
// Φn(a,b;0,Σ) with the Separation-of-Variables (SOV) algorithm of Genz,
// parallelized exactly as in the paper: a tiled QMC kernel on the diagonal
// tile rows (Algorithm 3), task-parallel GEMM propagation to the rows below
// (Algorithm 2), running either on a dense tiled Cholesky factor or on a
// Tile Low-Rank factor. A sequential reference implementation and a plain
// Monte Carlo estimator serve as baselines and validation oracles.
package mvn

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// Factor abstracts the lower Cholesky factor the PMVN integration consumes.
// The integration needs only two things from L: dense diagonal tiles (for
// the QMC kernel) and the action of off-diagonal tiles on a lane block of Y
// values (for the GEMM propagation). The dense path implements the latter
// with a dense GEMM; the TLR path with the cheap (Y·V)·Uᵀ form — which is
// exactly where the paper's TLR speedup materializes.
type Factor interface {
	// N returns the problem dimension.
	//repro:noalloc
	N() int
	// TS returns the tile size.
	//repro:noalloc
	TS() int
	// NT returns the number of tile rows.
	//repro:noalloc
	NT() int
	// TileRows returns the number of rows in tile row i.
	//repro:noalloc
	TileRows(i int) int
	// Diag returns the dense diagonal tile k of L (lower triangular).
	//repro:noalloc
	Diag(k int) *linalg.Matrix
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
	ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix)
}

// DenseFactor adapts a dense tiled Cholesky factor to the Factor interface.
type DenseFactor struct {
	L    *tile.Matrix
	sh32 shadowBox
}

// NewDenseFactor wraps a tiled lower Cholesky factor.
func NewDenseFactor(l *tile.Matrix) *DenseFactor {
	if l.M != l.N {
		panic(fmt.Sprintf("mvn: factor must be square, got %dx%d", l.M, l.N))
	}
	return &DenseFactor{L: l}
}

// N implements Factor.
//repro:noalloc
func (f *DenseFactor) N() int { return f.L.M }

// TS implements Factor.
//repro:noalloc
func (f *DenseFactor) TS() int { return f.L.TS }

// NT implements Factor.
//repro:noalloc
func (f *DenseFactor) NT() int { return f.L.MT }

// TileRows implements Factor.
//repro:noalloc
func (f *DenseFactor) TileRows(i int) int { return f.L.TileRows(i) }

// Diag implements Factor.
//repro:noalloc
func (f *DenseFactor) Diag(k int) *linalg.Matrix { return f.L.Tile(k, k) }

// ApplyOffDiagLanes implements Factor.
//repro:noalloc
func (f *DenseFactor) ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix) {
	linalg.GemmPackedA(alpha, y, true, f.L.Tile(i, j), beta, dst)
}

// TLRFactor adapts a TLR Cholesky factor to the Factor interface.
type TLRFactor struct {
	L    *tlr.Matrix
	sh32 shadowBox
}

// NewTLRFactor wraps a TLR lower Cholesky factor.
func NewTLRFactor(l *tlr.Matrix) *TLRFactor { return &TLRFactor{L: l} }

// N implements Factor.
//repro:noalloc
func (f *TLRFactor) N() int { return f.L.N }

// TS implements Factor.
//repro:noalloc
func (f *TLRFactor) TS() int { return f.L.TS }

// NT implements Factor.
//repro:noalloc
func (f *TLRFactor) NT() int { return f.L.NT }

// TileRows implements Factor.
//repro:noalloc
func (f *TLRFactor) TileRows(i int) int { return f.L.TileRows(i) }

// Diag implements Factor.
//repro:noalloc
func (f *TLRFactor) Diag(k int) *linalg.Matrix { return f.L.Diag[k] }

// ApplyOffDiagLanes implements Factor.
//repro:noalloc
func (f *TLRFactor) ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix) {
	f.L.Low[i][j].ApplyRightTransPacked(alpha, y, beta, dst)
}

// GridFactor adapts a factored engine grid — tiles in whatever mix of
// representations the adaptive policy chose — to the Factor interface. The
// propagation applies each tile in its own representation: dense GEMM for
// float64 tiles, the cheap U·(Vᵀ·Y) form for low-rank tiles; float32 tiles
// are promoted to float64 once at construction so the hot path never pays
// per-application conversions.
type GridFactor struct {
	G    *engine.Grid
	f32  [][]*linalg.Matrix // promoted float32 tiles, nil elsewhere
	sh32 shadowBox
}

// NewGridFactor wraps a factored engine grid.
func NewGridFactor(g *engine.Grid) *GridFactor {
	f := &GridFactor{G: g, f32: make([][]*linalg.Matrix, g.NT)}
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

// N implements Factor.
//repro:noalloc
func (f *GridFactor) N() int { return f.G.N }

// TS implements Factor.
//repro:noalloc
func (f *GridFactor) TS() int { return f.G.TS }

// NT implements Factor.
//repro:noalloc
func (f *GridFactor) NT() int { return f.G.NT }

// TileRows implements Factor.
//repro:noalloc
func (f *GridFactor) TileRows(i int) int { return f.G.TileRows(i) }

// Diag implements Factor.
//repro:noalloc
func (f *GridFactor) Diag(k int) *linalg.Matrix { return f.G.Diag(k) }

// ApplyOffDiagLanes implements Factor.
//repro:noalloc
func (f *GridFactor) ApplyOffDiagLanes(i, j int, alpha float64, y linalg.PackedA, beta float64, dst *linalg.Matrix) {
	switch t := f.G.At(i, j).(type) {
	case *tile.DenseF64:
		linalg.GemmPackedA(alpha, y, true, t.D, beta, dst)
	case *tile.LowRank:
		t.ApplyRightTransPacked(alpha, y, beta, dst)
	case *tile.DenseF32:
		linalg.GemmPackedA(alpha, y, true, f.f32[i][j], beta, dst)
	}
}
