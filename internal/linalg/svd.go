package linalg

import (
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ with
// U m×k, S length k and V n×k where k = min(m,n). Singular values are sorted
// in decreasing order.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi method (Hestenes), which is simple, robust and accurate:
// it is the reference the tests hold GolubReinschSVD and the TLR compressors
// to. The input is not modified.
func SVD(a *Matrix) *SVDResult {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors back.
		r := SVD(a.Transpose())
		return &SVDResult{U: r.V, S: r.S, V: r.U}
	}
	w := GetMat(m, n)
	w.CopyFrom(a)
	v := GetMatZero(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	s := GetVec(n)
	jacobiSVD(w, v, s)
	// Normalize the columns of W into U and sort by decreasing singular
	// value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	us, vs, ss := NewMatrix(m, n), NewMatrix(n, n), make([]float64, n)
	for k, j := range idx {
		uc, wc := us.Col(k), w.Col(j)
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := range wc {
				uc[i] = wc[i] * inv
			}
		}
		copy(vs.Col(k), v.Col(j))
		ss[k] = s[j]
	}
	PutVec(&s)
	PutMat(v)
	PutMat(w)
	return &SVDResult{U: us, S: ss, V: vs}
}

// jacobiSVD computes a thin SVD of w in place by one-sided Jacobi (Hestenes)
// plane rotations: on return the columns of w are U·diag(s) (unsorted —
// column j has norm s[j]), v has accumulated the rotations (it must be the
// identity on entry; it exits as the right singular vectors), and s (length
// w.Cols) holds the singular values. Sweeps stop once the largest pairwise
// column cosine is below 1e-14.
func jacobiSVD(w, v *Matrix, s []float64) {
	const offTol = 1e-14
	n := w.Cols
	const eps = 1e-15
	// Column square norms are the diagonal of the Gram matrix; caching them
	// per sweep (with the standard 2×2 eigenvalue update α−tγ / β+tγ after
	// each rotation) removes two of the three inner products per pair. The
	// refresh at each sweep stops the update recurrences from drifting.
	nrm := GetVec(n)
	for sweep := 0; sweep < 60; sweep++ {
		off := 0.0
		for j := 0; j < n; j++ {
			wc := w.Col(j)
			nrm[j] = Dot(wc, wc)
		}
		for p := 0; p < n-1; p++ {
			wp := w.Col(p)
			for q := p + 1; q < n; q++ {
				wq := w.Col(q)
				alpha, beta := nrm[p], nrm[q]
				gamma := Dot(wp, wq)
				if gamma == 0 {
					continue
				}
				denom := math.Sqrt(alpha * beta)
				if denom == 0 || math.Abs(gamma) <= eps*denom {
					continue
				}
				off = math.Max(off, math.Abs(gamma)/denom)
				// Jacobi rotation eliminating the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1/(math.Abs(zeta)+math.Sqrt(1+zeta*zeta)), zeta)
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotate(wp, wq, c, sn)
				rotate(v.Col(p), v.Col(q), c, sn)
				nrm[p] = alpha - t*gamma
				nrm[q] = beta + t*gamma
			}
		}
		if off < offTol {
			break
		}
	}
	PutVec(&nrm)
	for j := 0; j < n; j++ {
		s[j] = Nrm2(w.Col(j))
	}
}

func rotate(x, y []float64, c, s float64) {
	if hasVectorKernels && len(x) >= vecMinLen {
		rotVec(x, y, c, s)
		return
	}
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}
