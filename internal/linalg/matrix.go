// Package linalg is the dense linear-algebra substrate: a column-major
// matrix type with shared-backing views, the BLAS-3 kernels the tiled
// algorithms are built from (GEMM, SYRK, TRSM), Cholesky factorization,
// Householder QR and the Golub–Reinsch SVD (with a one-sided Jacobi SVD the
// tests use as reference), and the task forms of the Cholesky, TRSM, SYRK
// and mirror for whole-matrix set-up algebra (tasks.go: the serial kernels'
// bits at any worker count). It plays the role Intel MKL and the Chameleon
// kernels play in the paper.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense column-major matrix: element (i,j) lives at
// Data[i + j*Stride]. A Matrix may be a view into a larger allocation, which
// is how tiles address their part of a tiled matrix without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int // distance between consecutive columns; Stride ≥ Rows
	Data       []float64
}

// NewMatrix returns a zeroed r×c matrix with a fresh backing slice.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i+j*m.Stride] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i+j*m.Stride] = v }

// Add increments element (i,j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i+j*m.Stride] += v }

// Col returns column j as a length-Rows slice sharing the backing array.
func (m *Matrix) Col(j int) []float64 {
	if m.Rows == 0 {
		// A 0×c matrix has Stride 1 but no storage behind it.
		return nil
	}
	off := j * m.Stride
	return m.Data[off : off+m.Rows]
}

// View returns the r×c submatrix with upper-left corner (i,j), sharing
// backing storage with m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("linalg: view (%d,%d,%d,%d) out of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i+j*m.Stride:]}
}

// Clone returns a compact deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(out.Col(j), m.Col(j))
	}
	return out
}

// CopyFrom copies src (same shape) into m.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero clears every element.
func (m *Matrix) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Scale multiplies every element by beta, the C = beta·C step of the BLAS-3
// entry points: beta 1 is free, and beta 0 clears rather than multiplies, so
// it also defines uninitialized (pooled) or non-finite contents.
func (m *Matrix) Scale(beta float64) {
	switch beta {
	case 1:
	case 0:
		m.Zero()
	default:
		for j := 0; j < m.Cols; j++ {
			Scal(beta, m.Col(j))
		}
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Eye returns the n×n identity.
func Eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a compact copy of mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := 0; i < m.Rows; i++ {
			out.Set(j, i, col[i])
		}
	}
	return out
}

// MaxAbsDiff returns max |m−b| over all elements; shapes must match.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	d := 0.0
	for j := 0; j < m.Cols; j++ {
		mc, bc := m.Col(j), b.Col(j)
		for i := range mc {
			d = math.Max(d, math.Abs(mc[i]-bc[i]))
		}
	}
	return d
}

// FrobNorm returns the Frobenius norm, guarded against overflow by scaling.
func (m *Matrix) FrobNorm() float64 {
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				r := scale / a
				ssq = 1 + ssq*r*r
				scale = a
			} else {
				r := a / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// LowerFromFull zeroes the strict upper triangle in place (keeps the lower
// triangle including the diagonal), turning a symmetric matrix buffer into
// an explicit lower-triangular factor.
func (m *Matrix) LowerFromFull() {
	for j := 1; j < m.Cols; j++ {
		col := m.Col(j)
		for i := 0; i < min(j, m.Rows); i++ {
			col[i] = 0
		}
	}
}

// SymmetrizeFromLower mirrors the lower triangle into the upper triangle.
func (m *Matrix) SymmetrizeFromLower() { m.SymmetrizeCols(0, min(m.Rows, m.Cols)) }

// mirrorBlock is the side of the square blocks SymmetrizeCols transposes:
// within one, each destination run is contiguous and the strided source
// lines are reused across the block's neighbouring columns.
const mirrorBlock = 16

// SymmetrizeCols mirrors the columns [j0, j1) of the lower triangle of the
// leading min(Rows, Cols) square into the rows [j0, j1) of its upper
// triangle, a block at a time. Disjoint column ranges read and write
// disjoint elements, so they may be mirrored at once.
func (m *Matrix) SymmetrizeCols(j0, j1 int) {
	n := min(m.Rows, m.Cols)
	if j0 < 0 || j0 > j1 || j1 > n {
		panic(fmt.Sprintf("linalg: SymmetrizeCols [%d,%d) of order %d", j0, j1, n))
	}
	s, d := m.Stride, m.Data
	for jb := j0; jb < j1; jb += mirrorBlock {
		je := min(jb+mirrorBlock, j1)
		for ib := jb; ib < n; ib += mirrorBlock {
			for i := ib; i < min(ib+mirrorBlock, n); i++ {
				// Column i's rows jb… of the upper triangle from row i of the lower.
				dst := d[i*s+jb : i*s+min(je, i)]
				for t := range dst {
					dst[t] = d[i+(jb+t)*s]
				}
			}
		}
	}
}
