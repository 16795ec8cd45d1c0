package tile

import "repro/internal/linalg"

// smallSVD is a pooled thin SVD of a small core matrix, the shared engine
// behind low-rank rounding and the randomized compressor. Everything it
// holds comes from the workspace pool; release returns it.
type smallSVD struct {
	w     *linalg.Matrix // left singular vectors (rows ≥ cols)
	v     *linalg.Matrix // right singular vectors
	s     []float64      // unsorted singular values
	idx   []int          // decreasing order of s
	ss    []float64      // s sorted decreasingly
	trans bool           // SVD ran on the transpose (core had rows < cols)
}

// golubReinsch is the SVD svdPooled runs; a test swaps it for one that fails.
var golubReinsch = linalg.GolubReinschSVD

// svdPooled computes the thin SVD of core (p×q) with pooled scratch by
// Golub–Reinsch (bidiagonalization + shifted QR); core is not modified. ok is
// false, and nothing is held, when the QR iteration does not converge — which
// essentially never happens; every caller then keeps its tile dense.
func svdPooled(core *linalg.Matrix) (sv smallSVD, ok bool) {
	p, q := core.Rows, core.Cols
	if p >= q {
		sv.w = linalg.GetMat(p, q)
		sv.w.CopyFrom(core)
	} else {
		sv.trans = true
		sv.w = linalg.GetMat(q, p)
		for j := 0; j < p; j++ {
			wc := sv.w.Col(j)
			for i := 0; i < q; i++ {
				wc[i] = core.At(j, i)
			}
		}
	}
	r := sv.w.Cols
	sv.v = linalg.GetMat(r, r)
	sv.s = linalg.GetVec(r)
	if !golubReinsch(sv.w, sv.v, sv.s) {
		linalg.PutMat(sv.w)
		linalg.PutMat(sv.v)
		linalg.PutVec(&sv.s)
		return smallSVD{}, false
	}
	// Decreasing order by insertion sort: r is micro-tile sized.
	sv.idx = linalg.GetInts(r)
	for i := range sv.idx {
		sv.idx[i] = i
	}
	for i := 1; i < r; i++ {
		j, key := i, sv.idx[i]
		for j > 0 && sv.s[sv.idx[j-1]] < sv.s[key] {
			sv.idx[j] = sv.idx[j-1]
			j--
		}
		sv.idx[j] = key
	}
	sv.ss = linalg.GetVec(r)
	for i, j := range sv.idx {
		sv.ss[i] = sv.s[j]
	}
	return sv, true
}

// truncate returns the rank keeping the relative Frobenius tail within tol,
// counting extraTailSq (energy already lost outside this spectrum, e.g. a
// range-finder residual) toward both the total and the tail. The result is
// at least 1 when any singular value is nonzero, and capped at maxRank
// (0 = uncapped).
func (sv *smallSVD) truncate(tol, extraTailSq float64, maxRank int) int {
	if len(sv.ss) == 0 || sv.ss[0] == 0 {
		return 0
	}
	total := extraTailSq
	for _, v := range sv.ss {
		total += v * v
	}
	thresh := tol * tol * total
	tail := extraTailSq
	k := len(sv.ss)
	for k > 0 {
		v := sv.ss[k-1]
		if tail+v*v > thresh {
			break
		}
		tail += v * v
		k--
	}
	k = max(k, 1)
	if maxRank > 0 && k > maxRank {
		k = maxRank
	}
	return k
}

// leftScaledInto writes the top-k left singular vectors scaled by their
// singular values (U·diag(S), p×k) into x.
func (sv *smallSVD) leftScaledInto(x *linalg.Matrix, k int) {
	src := sv.w
	if sv.trans {
		src = sv.v
	}
	for j := 0; j < k; j++ {
		col := sv.idx[j]
		xc, sc := x.Col(j), src.Col(col)
		s := sv.s[col]
		for i := range xc {
			xc[i] = s * sc[i]
		}
	}
}

// rightInto writes the top-k right singular vectors (orthonormal, q×k)
// into x.
func (sv *smallSVD) rightInto(x *linalg.Matrix, k int) {
	src := sv.v
	if sv.trans {
		src = sv.w
	}
	for j := 0; j < k; j++ {
		copy(x.Col(j), src.Col(sv.idx[j]))
	}
}

// release returns all pooled scratch.
func (sv *smallSVD) release() {
	linalg.PutMat(sv.w)
	linalg.PutMat(sv.v)
	linalg.PutVec(&sv.s)
	linalg.PutVec(&sv.ss)
	linalg.PutInts(sv.idx)
}
