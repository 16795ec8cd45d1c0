// Package tile provides the tile representations the task-parallel
// factorization dispatches over — dense float64, dense float32 and low rank
// U·Vᵀ — with their kernels: the single-precision GEMM and TRSM, the
// conversions between representations, compression (randomized SVD, ACA) and
// the tile codec. One tile is owned, locked and computed on by one task at a
// time; engine.Grid arranges them into the Chameleon/HiCMA-style tiled
// matrix the paper initializes in pmvn_init().
package tile

import "repro/internal/linalg"

// Kind identifies a tile representation.
type Kind int

// Tile representations.
const (
	// KindDenseF64 is a dense float64 tile — full accuracy, full cost.
	KindDenseF64 Kind = iota
	// KindDenseF32 is a dense float32 tile — half the memory traffic for
	// tiles whose contribution is below the double-precision noise floor.
	KindDenseF32
	// KindLowRank is a rank-k outer-product tile U·Vᵀ.
	KindLowRank
)

// String returns "dense64", "dense32" or "lowrank".
func (k Kind) String() string {
	switch k {
	case KindDenseF32:
		return "dense32"
	case KindLowRank:
		return "lowrank"
	default:
		return "dense64"
	}
}

// Tile is the polymorphic tile representation the unified factorization
// engine dispatches its kernels over. A tiled matrix mixes representations
// per tile — dense float64 on the diagonal band, dense float32 or low rank
// off-diagonal — and one task graph drives them all.
type Tile interface {
	// Dims returns the logical (rows, cols) of the tile.
	Dims() (int, int)
	// Kind identifies the representation for dispatch and reporting.
	Kind() Kind
}

// DenseF64 is a dense double-precision tile (the classical Chameleon tile).
type DenseF64 struct{ D *linalg.Matrix }

// Dims implements Tile.
func (t *DenseF64) Dims() (int, int) { return t.D.Rows, t.D.Cols }

// Kind implements Tile.
func (t *DenseF64) Kind() Kind { return KindDenseF64 }

// PackedF64 is a dense double-precision factor tile L re-laid, over its own
// storage, as the packed right operand of the sweep's products Y·Lᵀ
// (linalg.PackedB): what a DenseF64 tile becomes once it is part of a
// finished factor, so no product packs it again. It is Kind KindDenseF64 —
// the same tile, the same bytes — but a different type, because its payload
// is not column-major: a reader that wants the matrix goes through
// P.UnpackInto.
type PackedF64 struct{ P linalg.PackedB }

// Dims implements Tile.
func (t *PackedF64) Dims() (int, int) { return t.P.N, t.P.K }

// Kind implements Tile.
func (t *PackedF64) Kind() Kind { return KindDenseF64 }

// DenseF32 is a dense single-precision tile (the mixed-precision band
// representation).
type DenseF32 struct{ D *Matrix32 }

// Dims implements Tile.
func (t *DenseF32) Dims() (int, int) { return t.D.Rows, t.D.Cols }

// Kind implements Tile.
func (t *DenseF32) Kind() Kind { return KindDenseF32 }

// Dims implements Tile for the low-rank representation.
func (t *LowRank) Dims() (int, int) { return t.M, t.N }

// Kind implements Tile.
func (t *LowRank) Kind() Kind { return KindLowRank }
