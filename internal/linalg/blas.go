package linalg

import (
	"fmt"
	"math"
)

// vecMinLen is the slice length below which the scalar level-1 loops beat
// the vector kernels' call overhead.
const vecMinLen = 12

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if hasVectorKernels && len(x) >= vecMinLen {
		return dotVec(x, y[:len(x)])
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha·x.
func Axpy(alpha float64, x, y []float64) { axpy(alpha, x, y, vecLen(len(x))) }

// vecLen reports whether the level-1 kernels take the vector body for a
// slice of n elements.
func vecLen(n int) bool { return hasVectorKernels && n >= vecMinLen }

// axpy is Axpy with the vector body chosen by vec, not by len(x): daxpy
// fuses each element's multiply and add and the scalar loop does not, so a
// part of a longer slice passes the whole slice's vecLen to round as the
// whole does.
func axpy(alpha float64, x, y []float64, vec bool) {
	if alpha == 0 {
		return
	}
	if vec && len(x) > 0 {
		axpyVec(alpha, x, y[:len(x)])
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyCols computes acc += Σ_{t<nt} c[t·incC]·y[:, j0+t] over y's first
// len(acc) rows, the terms in order and a zero coefficient skipped: the Axpy
// loop over y's columns, with its bits. On the vector kernels each element
// takes one FMA per term, as daxpy does, but 16 lanes of acc stay in
// registers across every term instead of being loaded and stored once per
// term. The coefficients are strided (incC ≥ 1), so a row of a column-major
// matrix is read in place.
func AxpyCols(acc, c []float64, incC int, y *Matrix, j0, nt int) {
	n := len(acc)
	if n > y.Rows || j0 < 0 || nt < 0 || j0+nt > y.Cols || incC < 1 || (nt > 0 && (nt-1)*incC >= len(c)) {
		panic(fmt.Sprintf("linalg: AxpyCols of %d lanes, %d terms at stride %d of %d, columns from %d of %dx%d",
			n, nt, incC, len(c), j0, y.Rows, y.Cols))
	}
	if nt == 0 || n == 0 {
		return
	}
	if !hasVectorKernels || n < vecMinLen {
		for t := 0; t < nt; t++ {
			Axpy(c[t*incC], y.Col(j0 + t)[:n], acc)
		}
		return
	}
	axpyColsVec(acc, c, incC, nt, y.Data[j0*y.Stride:], y.Stride)
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, overflow-guarded by the classical
// scaled-sum-of-squares recurrence. It allocates nothing.
func Nrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
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
	return scale * math.Sqrt(ssq)
}

// Gemv computes y = alpha·op(A)·x + beta·y where op is the identity or the
// transpose.
func Gemv(transA bool, alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	rows, cols := a.Rows, a.Cols
	if transA {
		rows, cols = cols, rows
	}
	if len(x) != cols || len(y) != rows {
		panic("linalg: Gemv shape mismatch")
	}
	if beta != 1 {
		if beta == 0 {
			for i := range y {
				y[i] = 0
			}
		} else {
			Scal(beta, y)
		}
	}
	if !transA {
		// y += alpha * A x: accumulate column-wise (stride-1 on A and y).
		for j := 0; j < a.Cols; j++ {
			Axpy(alpha*x[j], a.Col(j), y)
		}
	} else {
		// y += alpha * Aᵀ x: each y[j] is a column dot (stride-1 again).
		for j := 0; j < a.Cols; j++ {
			y[j] += alpha * Dot(a.Col(j), x)
		}
	}
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C. op(A) is m×k, op(B) is k×n,
// C is m×n. Large products run through the packed register-blocked kernel
// (see blocked.go); tiny ones through the unpacked column-oriented loops.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	m, k := a.Rows, a.Cols
	if transA {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = n, kb
	}
	if k != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("linalg: Gemm shape mismatch: op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, k, kb, n, c.Rows, c.Cols))
	}
	c.Scale(beta)
	if alpha == 0 || k == 0 {
		return
	}
	if !hasVectorKernels || m*n*k <= gemmNaiveCutoff {
		gemmNaive(transA, transB, alpha, a, b, c, m, n, k)
		return
	}
	gemmBlocked(transA, transB, alpha, a, b, c, m, n, k)
}

// gemmNaive accumulates C += alpha·op(A)·op(B) with the historical unpacked
// loops, each transpose case ordered to keep the innermost accesses at
// stride 1. It is the reference implementation the blocked kernel is tested
// against and the fast path for tiny products.
func gemmNaive(transA, transB bool, alpha float64, a, b, c *Matrix, m, n, k int) {
	gemmNaiveVec(transA, transB, alpha, a, b, c, m, n, k, vecLen(m))
}

// gemmNaiveVec is gemmNaive with the vector body of its m-long axpys chosen
// by vec (see axpy).
func gemmNaiveVec(transA, transB bool, alpha float64, a, b, c *Matrix, m, n, k int, vec bool) {
	switch {
	case !transA && !transB:
		// C(:,j) += alpha * A(:,l) * B(l,j): axpy panels, all stride-1.
		for j := 0; j < n; j++ {
			cc, bc := c.Col(j), b.Col(j)
			for l := 0; l < k; l++ {
				axpy(alpha*bc[l], a.Col(l), cc, vec)
			}
		}
	case transA && !transB:
		// C(i,j) += alpha * dot(A(:,i), B(:,j)).
		for j := 0; j < n; j++ {
			cc, bc := c.Col(j), b.Col(j)
			for i := 0; i < m; i++ {
				cc[i] += alpha * Dot(a.Col(i)[:k], bc[:k])
			}
		}
	case !transA && transB:
		// C(:,j) += alpha * A(:,l) * B(j,l): walk B rows; A columns stride-1.
		for l := 0; l < k; l++ {
			ac, bc := a.Col(l), b.Col(l)
			for j := 0; j < n; j++ {
				if bl := bc[j]; bl != 0 {
					axpy(alpha*bl, ac, c.Col(j), vec)
				}
			}
		}
	default: // transA && transB
		for j := 0; j < n; j++ {
			cc := c.Col(j)
			for i := 0; i < m; i++ {
				ai := a.Col(i)
				s := 0.0
				for l := 0; l < k; l++ {
					s += ai[l] * b.At(j, l)
				}
				cc[i] += alpha * s
			}
		}
	}
}

// Syrk computes the lower triangle of C = alpha·A·Aᵀ + beta·C (trans=false)
// or C = alpha·Aᵀ·A + beta·C (trans=true). Only the lower triangle of C is
// referenced and updated, as in BLAS DSYRK with uplo='L'. Large updates run
// blockwise through the packed GEMM kernel.
func Syrk(trans bool, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n, k := a.Rows, a.Cols
	if trans {
		n, k = k, n
	}
	if c.Rows != n || c.Cols != n {
		panic("linalg: Syrk shape mismatch")
	}
	// beta = 0 overwrites: C may be pooled scratch holding NaN or ±Inf, which
	// a multiplication by zero would keep.
	if beta != 1 {
		for j := 0; j < n; j++ {
			cc := c.Col(j)[j:n]
			if beta == 0 {
				clear(cc)
				continue
			}
			for i := range cc {
				cc[i] *= beta
			}
		}
	}
	syrkTile(trans, alpha, a, c, n, k, 0, n, 0, n)
}

// SyrkTile is the part of Syrk(trans, alpha, a, 1, c) that updates the lower
// triangle of c within rows [i0, i0+ni) and columns [j0, j0+nj). The range
// is cut along Syrk's own blocks — i0 and j0 multiples of 64, and ni and nj
// too unless the range ends at c's last row or column — and the
// kernel is picked by c's whole order, so every element gets the bits the
// whole call gives it: tiles that cover the lower triangle once, run in any
// order or at once, are the whole update.
func SyrkTile(trans bool, alpha float64, a, c *Matrix, i0, j0, ni, nj int) {
	n, k := a.Rows, a.Cols
	if trans {
		n, k = k, n
	}
	aligned := func(p, q int) bool {
		return p >= 0 && q >= 0 && p+q <= n && p%syrkBlockSize == 0 && (q%syrkBlockSize == 0 || p+q == n)
	}
	if c.Rows != n || c.Cols != n || !aligned(i0, ni) || !aligned(j0, nj) {
		panic(fmt.Sprintf("linalg: SyrkTile (%d,%d,%d,%d) of a %dx%d update of order %d", i0, j0, ni, nj, c.Rows, c.Cols, n))
	}
	syrkTile(trans, alpha, a, c, n, k, i0, i0+ni, j0, j0+nj)
}

// syrkTile runs the lower-triangle elements of rows [i0, i1) and columns
// [j0, j1) of the validated Syrk update of order n and depth k.
func syrkTile(trans bool, alpha float64, a, c *Matrix, n, k, i0, i1, j0, j1 int) {
	if alpha == 0 || k == 0 {
		return
	}
	if !hasVectorKernels || n*n*k <= gemmNaiveCutoff {
		syrkNaiveTile(trans, alpha, a, c, k, i0, i1, j0, j1)
		return
	}
	syrkBlockedTile(trans, alpha, a, c, n, k, i0, i1, j0, j1)
}

// syrkNaive is the historical unpacked SYRK, kept as the blocked kernel's
// reference and the small-size fast path.
func syrkNaive(trans bool, alpha float64, a, c *Matrix, n, k int) {
	syrkNaiveTile(trans, alpha, a, c, k, 0, n, 0, n)
}

// syrkNaiveTile is syrkNaive on the elements of rows [i0, i1) and columns
// [j0, j1): each element takes the same terms in the same order.
func syrkNaiveTile(trans bool, alpha float64, a, c *Matrix, k, i0, i1, j0, j1 int) {
	if !trans {
		for l := 0; l < k; l++ {
			al := a.Col(l)
			for j := j0; j < j1; j++ {
				if v := alpha * al[j]; v != 0 {
					cc := c.Col(j)
					for i := max(j, i0); i < i1; i++ {
						cc[i] += v * al[i]
					}
				}
			}
		}
	} else {
		for j := j0; j < j1; j++ {
			aj := a.Col(j)[:k]
			cc := c.Col(j)
			for i := max(j, i0); i < i1; i++ {
				cc[i] += alpha * Dot(a.Col(i)[:k], aj)
			}
		}
	}
}

// TrsmSide selects which side of the unknown the triangular matrix is on.
type TrsmSide int

// Triangular-solve sides.
const (
	Left  TrsmSide = iota // solve op(L)·X = alpha·B
	Right                 // solve X·op(L) = alpha·B
)

// TrsmLower solves a triangular system with the lower-triangular matrix l,
// overwriting b with the solution X:
//
//	side=Left,  trans=false:  L·X = alpha·B
//	side=Left,  trans=true:   Lᵀ·X = alpha·B
//	side=Right, trans=false:  X·L = alpha·B
//	side=Right, trans=true:   X·Lᵀ = alpha·B
//
// Only the lower triangle of l is referenced. Solves larger than one block
// run the blocked right-looking algorithm whose trailing updates are level-3
// GEMMs.
func TrsmLower(side TrsmSide, trans bool, alpha float64, l, b *Matrix) {
	n := l.Rows
	if l.Cols != n {
		panic("linalg: TrsmLower needs square L")
	}
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic("linalg: TrsmLower shape mismatch")
	}
	if alpha != 1 {
		for j := 0; j < b.Cols; j++ {
			Scal(alpha, b.Col(j))
		}
	}
	trsmLower(side, trans, l, b, b.Rows, b.Cols)
}

// TrsmLowerPart solves the part of TrsmLower(side, trans, 1, l, b) that b's
// rows [lo, hi) hold for side Right, or its columns [lo, hi) for side Left:
// a right-side solve acts on each row of b alone, a left-side one on each
// column. The kernels are picked by b's whole shape, so every element gets
// the bits the whole call gives it: parts that cover b once, run in any
// order or at once, are the whole solve.
func TrsmLowerPart(side TrsmSide, trans bool, l, b *Matrix, lo, hi int) {
	n, ext := l.Rows, b.Cols
	if side == Right {
		ext = b.Rows
	}
	if l.Cols != n || (side == Left && b.Rows != n) || (side == Right && b.Cols != n) || lo < 0 || lo > hi || hi > ext {
		panic(fmt.Sprintf("linalg: TrsmLowerPart [%d,%d) of a %dx%d right-hand side, L %dx%d", lo, hi, b.Rows, b.Cols, l.Rows, l.Cols))
	}
	if lo == hi || b.Rows == 0 || b.Cols == 0 {
		return
	}
	if side == Right {
		trsmLower(side, trans, l, b.View(lo, 0, hi-lo, b.Cols), b.Rows, b.Cols)
		return
	}
	trsmLower(side, trans, l, b.View(0, lo, b.Rows, hi-lo), b.Rows, b.Cols)
}

// trsmLower solves into b, a part of a right-hand side of wr rows and wc
// columns, choosing every kernel by that whole shape.
func trsmLower(side TrsmSide, trans bool, l, b *Matrix, wr, wc int) {
	n := l.Rows
	if n == 0 || b.Rows == 0 || b.Cols == 0 {
		return
	}
	if !hasVectorKernels || n <= trsmBlockSize {
		trsmLowerUnblockedVec(side, trans, l, b, vecLen(wr))
		return
	}
	trsmLowerBlocked(side, trans, l, b, wr, wc)
}

// trsmLowerUnblocked is the historical substitution kernel, the per-block
// solve of the blocked algorithm and the reference implementation.
func trsmLowerUnblocked(side TrsmSide, trans bool, l, b *Matrix) {
	trsmLowerUnblockedVec(side, trans, l, b, vecLen(b.Rows))
}

// trsmLowerUnblockedVec is trsmLowerUnblocked with the vector body of the
// right-side cases' axpys down b's columns chosen by vec (see axpy).
func trsmLowerUnblockedVec(side TrsmSide, trans bool, l, b *Matrix, vec bool) {
	n := l.Rows
	switch {
	case side == Left && !trans:
		// Forward substitution, column-oriented over B.
		for j := 0; j < b.Cols; j++ {
			x := b.Col(j)
			for k := 0; k < n; k++ {
				x[k] /= l.At(k, k)
				if xk := x[k]; xk != 0 {
					lk := l.Col(k)
					for i := k + 1; i < n; i++ {
						x[i] -= xk * lk[i]
					}
				}
			}
		}
	case side == Left && trans:
		// Back substitution with Lᵀ (upper triangular).
		for j := 0; j < b.Cols; j++ {
			x := b.Col(j)
			for k := n - 1; k >= 0; k-- {
				lk := l.Col(k)
				s := x[k]
				for i := k + 1; i < n; i++ {
					s -= lk[i] * x[i]
				}
				x[k] = s / lk[k]
			}
		}
	case side == Right && !trans:
		// X·L = B ⇒ columns resolved right-to-left:
		// X(:,k) = (B(:,k) − Σ_{i>k} X(:,i)·L(i,k)) / L(k,k)
		for k := n - 1; k >= 0; k-- {
			lk := l.Col(k)
			xk := b.Col(k)
			for i := k + 1; i < n; i++ {
				axpy(-lk[i], b.Col(i), xk, vec)
			}
			Scal(1/lk[k], xk)
		}
	default: // side == Right && trans
		// X·Lᵀ = B ⇒ left-to-right:
		// X(:,k) = (B(:,k) − Σ_{i<k} X(:,i)·Lᵀ(i,k)) / L(k,k),  Lᵀ(i,k)=L(k,i)
		for k := 0; k < n; k++ {
			xk := b.Col(k)
			for i := 0; i < k; i++ {
				axpy(-l.At(k, i), b.Col(i), xk, vec)
			}
			Scal(1/l.At(k, k), xk)
		}
	}
}
