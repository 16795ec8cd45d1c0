// Package tile provides the tile representations the task-parallel
// factorization dispatches over — dense float64 and low rank U·Vᵀ — with
// their kernels: the conversion between them, compression (randomized SVD,
// ACA) and the tile codec. One tile is owned, locked and computed on by one
// task at a time; engine.Grid arranges them into the Chameleon/HiCMA-style
// tiled matrix the paper initializes in pmvn_init().
package tile

import "repro/internal/linalg"

// Kind identifies a tile representation.
type Kind int

// Tile representations.
const (
	// KindDenseF64 is a dense float64 tile — full accuracy, full cost.
	KindDenseF64 Kind = iota
	// KindLowRank is a rank-k outer-product tile U·Vᵀ.
	KindLowRank
)

// String returns "dense64" or "lowrank".
func (k Kind) String() string {
	if k == KindLowRank {
		return "lowrank"
	}
	return "dense64"
}

// Tile is the polymorphic tile representation the unified factorization
// engine dispatches its kernels over. A tiled matrix mixes representations
// per tile — dense float64 on the diagonal band, low rank or dense float64
// off it — and one task graph drives them all.
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

// Dims implements Tile for the low-rank representation.
func (t *LowRank) Dims() (int, int) { return t.M, t.N }

// Kind implements Tile.
func (t *LowRank) Kind() Kind { return KindLowRank }
