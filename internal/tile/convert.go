package tile

import "repro/internal/linalg"

// In-place conversion kernels between the tile representations. They write
// into a caller-supplied (typically pooled) destination, so the
// factorization's mixed-representation updates convert operands without
// allocating per task; LowRank.Dense is the allocating form for one-off
// construction.

// ToSingleInto converts a into the preallocated float32 matrix dst, which
// must have a's shape.
func ToSingleInto(a *linalg.Matrix, dst *Matrix32) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tile: ToSingleInto shape mismatch")
	}
	for j := 0; j < a.Cols; j++ {
		src := a.Col(j)
		out := dst.Col(j)
		for i, v := range src {
			out[i] = float32(v)
		}
	}
}

// ToDoubleInto converts m into the preallocated float64 matrix dst, which
// must have m's shape.
func (m *Matrix32) ToDoubleInto(dst *linalg.Matrix) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("tile: ToDoubleInto shape mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		out := dst.Col(j)
		for i, v := range src {
			out[i] = float64(v)
		}
	}
}

// DenseInto materializes U·Vᵀ into the preallocated t.M×t.N matrix dst.
func (t *LowRank) DenseInto(dst *linalg.Matrix) {
	if dst.Rows != t.M || dst.Cols != t.N {
		panic("tile: DenseInto shape mismatch")
	}
	if t.Rank() == 0 {
		dst.Zero()
		return
	}
	linalg.Gemm(false, true, 1, t.U, t.V, 0, dst)
}
