package tile

import (
	"math"

	"repro/internal/linalg"
)

// CompressACA builds a low-rank tile with partially-pivoted Adaptive Cross
// Approximation followed by QR+SVD recompression. ACA touches only O(k(m+n))
// matrix entries per rank instead of the full tile an SVD needs, which is
// how HiCMA-style libraries assemble large covariance matrices without ever
// forming the dense tiles — and how the adaptive policy probes
// compressibility without densify-then-SVD. entry(i,j) evaluates the
// underlying matrix element; the tile has m×n logical entries.
//
// The iteration stops when the new cross's norm estimate falls below
// tol·‖A_k‖_F (estimated incrementally) or the rank reaches maxRank
// (0 = min(m,n)).
func CompressACA(m, n int, entry func(i, j int) float64, tol float64, maxRank int) *LowRank {
	t, _ := CompressACAConv(m, n,
		func(dst []float64, i int) {
			for j := range dst {
				dst[j] = entry(i, j)
			}
		},
		func(dst []float64, j int) {
			for i := range dst {
				dst[i] = entry(i, j)
			}
		}, tol, maxRank)
	return t
}

// acaResidualRows is the number of rows the residual check reads again and
// acaResidualSlack the factor by which their scaled residual may exceed
// tol·‖A_k‖_F before the approximation is disowned. A cross set that honestly
// converged leaves a residual of a few tol·‖A‖ (the stop rule is a quarter of
// tol, twice in a row, and rounding truncates at tol; accepted tiles of a
// row-major Matérn grid measure up to 7·tol). What the check exists for — a
// smooth kernel at locations in scattered order, where partial pivoting walks
// past part of the tile, and the near-diagonal tiles of a regular grid, where
// it stops 10–20 ranks short — measures 30·tol to 10⁴·tol, so one decade of
// slack separates the two without rejecting a good tile over sampling noise.
const (
	acaResidualRows  = 8
	acaResidualSlack = 10
)

// CompressACAConv is CompressACA over runs — row(dst, i) fills the n entries
// of tile row i, col(dst, j) the m entries of tile column j, one call per
// cross where an entry evaluator would take m+n — reporting whether the
// result is a controlled-error approximation. A false return means the rank
// budget was exhausted before the cross iteration converged (unlike a
// truncated SVD, a budget-capped cross approximation has no optimality
// guarantee), the iteration stopped on its own estimate but the rows
// residualWithin reads back disagree with the returned tile by more than
// acaResidualSlack·tol·‖A_k‖_F, or the rounding's SVD failed to converge;
// callers that need accuracy — e.g. TLR assembly of near-diagonal high-rank
// tiles — must then not use the tile (the engine's probe keeps such a tile
// dense).
func CompressACAConv(m, n int, row, col func(dst []float64, i int), tol float64, maxRank int) (*LowRank, bool) {
	limit := min(m, n)
	if maxRank > 0 && maxRank < limit {
		limit = maxRank
	}
	converged := false
	t := &LowRank{M: m, N: n}
	if limit == 0 {
		return t, true
	}
	// Crosses accumulate as columns of pooled factor panels.
	us := linalg.GetMat(m, limit)
	vs := linalg.GetMat(n, limit)
	rowUsed := make([]bool, m)
	colUsed := make([]bool, n)
	rowBuf := linalg.GetVec(n)
	colBuf := linalg.GetVec(m)

	// Frobenius-norm estimate of the accumulated approximation.
	var normSq float64
	nextRow := 0
	k := 0
	small := 0
	for k < limit {
		// Residual row `nextRow`: A(i,:) − Σ u_t[i]·v_t.
		i := nextRow
		if i < 0 || rowUsed[i] {
			i = -1
			for r := 0; r < m; r++ {
				if !rowUsed[r] {
					i = r
					break
				}
			}
			if i < 0 {
				break
			}
		}
		residualRow(rowBuf, i, row, us, vs, k)
		// Pivot column: largest residual entry in the row.
		jPiv, pivVal := -1, 0.0
		for j := 0; j < n; j++ {
			if colUsed[j] {
				continue
			}
			if a := math.Abs(rowBuf[j]); a > pivVal {
				pivVal, jPiv = a, j
			}
		}
		if jPiv < 0 || pivVal == 0 {
			rowUsed[i] = true
			nextRow = -1
			if allUsed(rowUsed) {
				converged = true // residual exhausted: exact representation
				break
			}
			continue
		}
		// Residual column jPiv.
		col(colBuf, jPiv)
		for t := 0; t < k; t++ {
			linalg.Axpy(-vs.Col(t)[jPiv], us.Col(t), colBuf)
		}
		pivot := rowBuf[jPiv]
		u := us.Col(k)
		for r := 0; r < m; r++ {
			u[r] = colBuf[r] / pivot
		}
		v := vs.Col(k)
		copy(v, rowBuf)
		rowUsed[i] = true
		colUsed[jPiv] = true
		k++

		// Update the norm estimate: ‖A_k‖² = ‖A_{k-1}‖² + 2Σ⟨u_k,u_t⟩⟨v_k,v_t⟩ + ‖u_k‖²‖v_k‖².
		uNorm := linalg.Dot(u, u)
		vNorm := linalg.Dot(v, v)
		cross := 0.0
		for t := 0; t < k-1; t++ {
			cross += linalg.Dot(u, us.Col(t)) * linalg.Dot(v, vs.Col(t))
		}
		normSq += 2*cross + uNorm*vNorm
		// Next pivot row: largest residual entry in the chosen column.
		nextRow = -1
		best := 0.0
		for r := 0; r < m; r++ {
			if rowUsed[r] {
				continue
			}
			if a := math.Abs(colBuf[r]); a > best {
				best, nextRow = a, r
			}
		}
		// Convergence: the cross norms must sit well below the tolerance for
		// two consecutive iterations. A single small cross is a weak signal —
		// partial pivoting can land on a nearly-converged row while
		// substantial residual remains elsewhere — and that slack is exactly
		// what made capped assemblies drift far past tol in aggregate.
		if math.Sqrt(uNorm*vNorm) <= 0.25*tol*math.Sqrt(math.Max(normSq, 0)) {
			small++
			if small >= 2 {
				converged = true
				break
			}
		} else {
			small = 0
		}
	}
	if k > 0 {
		// Recompress: ACA overshoots the rank slightly; rounding restores
		// the SVD-grade truncation the rest of the TLR stack expects.
		// RoundLR overwrites the views, which is fine — the panels are
		// recycled right after. A rounding whose SVD fails leaves a rank-0
		// tile, reported as not converged.
		var ok bool
		t.U, t.V, ok = RoundLR(us.View(0, 0, m, k), vs.View(0, 0, n, k), tol, maxRank)
		converged = converged && ok
		if converged {
			converged = residualWithin(t, row, rowBuf, acaResidualSlack*tol*math.Sqrt(math.Max(normSq, 0)))
		}
	}
	linalg.PutVec(&rowBuf)
	linalg.PutVec(&colBuf)
	linalg.PutMat(us)
	linalg.PutMat(vs)
	return t, converged
}

// residualRow fills dst with row i of the tile minus the first k crosses:
// A(i,:) − Σ_t u_t[i]·v_t.
func residualRow(dst []float64, i int, row func(dst []float64, i int), us, vs *linalg.Matrix, k int) {
	row(dst, i)
	for t := 0; t < k; t++ {
		linalg.Axpy(-us.Col(t)[i], vs.Col(t), dst)
	}
}

// residualWithin measures the returned tile, not the iteration's view of it:
// acaResidualRows rows at fixed, index-derived positions are read again and
// ‖A(rows,:) − U(rows,:)·Vᵀ‖_F, scaled by √(m/rows) to the whole tile, must
// not exceed limit. The stop rule only ever saw the rows and columns pivoting
// led it to; and rows it did pivot on are exact before rounding, not after
// (crosses on near-zero pivots round badly), so the sample ignores which
// rows were used.
func residualWithin(t *LowRank, row func(dst []float64, i int), buf []float64, limit float64) bool {
	s := min(acaResidualRows, t.M)
	var resSq float64
	for q := 0; q < s; q++ {
		residualRow(buf, (2*q+1)*t.M/(2*s), row, t.U, t.V, t.Rank())
		resSq += linalg.Dot(buf, buf)
	}
	return resSq*float64(t.M)/float64(s) <= limit*limit
}

func allUsed(used []bool) bool {
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}
