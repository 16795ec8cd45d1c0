package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
// it is the reference the tests hold GolubReinschSVD to. The input is not
// modified.
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

func checkSVD(t *testing.T, a *Matrix) {
	t.Helper()
	res := SVD(a)
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if res.U.Rows != m || res.U.Cols != k || len(res.S) != k || res.V.Rows != n || res.V.Cols != k {
		t.Fatalf("SVD shapes wrong: U %dx%d S %d V %dx%d", res.U.Rows, res.U.Cols, len(res.S), res.V.Rows, res.V.Cols)
	}
	// Reconstruction.
	us := res.U.Clone()
	for j := 0; j < k; j++ {
		Scal(res.S[j], us.Col(j))
	}
	rec := NewMatrix(m, n)
	Gemm(false, true, 1, us, res.V, 0, rec)
	scale := math.Max(1, a.FrobNorm())
	if d := rec.MaxAbsDiff(a); d > 1e-10*scale {
		t.Errorf("SVD reconstruction diff %v", d)
	}
	// Orthonormality of U and V.
	utu := NewMatrix(k, k)
	Gemm(true, false, 1, res.U, res.U, 0, utu)
	vtv := NewMatrix(k, k)
	Gemm(true, false, 1, res.V, res.V, 0, vtv)
	for j := 0; j < k; j++ {
		if res.S[j] == 0 {
			continue // zero singular columns may be unnormalized
		}
		for i := 0; i < k; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if res.S[i] == 0 {
				continue
			}
			if math.Abs(utu.At(i, j)-want) > 1e-10 {
				t.Fatalf("UᵀU(%d,%d) = %v", i, j, utu.At(i, j))
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-10 {
				t.Fatalf("VᵀV(%d,%d) = %v", i, j, vtv.At(i, j))
			}
		}
	}
	// Decreasing order.
	for j := 1; j < k; j++ {
		if res.S[j] > res.S[j-1]+1e-14 {
			t.Fatalf("singular values not sorted: %v", res.S)
		}
	}
}

func TestSVDRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, sh := range [][2]int{{1, 1}, {3, 3}, {8, 5}, {5, 8}, {20, 20}, {32, 7}} {
		checkSVD(t, randMatrix(sh[0], sh[1], rng))
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -5) // sign goes into the vectors
	a.Set(2, 2, 1)
	res := SVD(a)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-12 {
			t.Errorf("S[%d] = %v, want %v", i, res.S[i], w)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: exactly one nonzero singular value.
	rng := rand.New(rand.NewSource(31))
	u := randMatrix(6, 1, rng)
	v := randMatrix(4, 1, rng)
	a := NewMatrix(6, 4)
	Gemm(false, true, 1, u, v, 0, a)
	res := SVD(a)
	if res.S[0] < 1e-10 {
		t.Fatal("leading singular value vanished")
	}
	for j := 1; j < len(res.S); j++ {
		if res.S[j] > 1e-10*res.S[0] {
			t.Errorf("rank-1 matrix has S[%d]=%v", j, res.S[j])
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	res := SVD(NewMatrix(4, 3))
	for _, s := range res.S {
		if s != 0 {
			t.Errorf("zero matrix should have zero singular values, got %v", res.S)
		}
	}
}

func TestSVDSingularValuesMatchEigen(t *testing.T) {
	// For SPD A, singular values equal eigenvalues; check trace identities:
	// Σσ_i = tr(A) and Σσ_i² = ‖A‖_F².
	rng := rand.New(rand.NewSource(32))
	a := randSPD(10, rng)
	a.SymmetrizeFromLower()
	res := SVD(a)
	tr, sum, sum2 := 0.0, 0.0, 0.0
	for i := 0; i < 10; i++ {
		tr += a.At(i, i)
	}
	for _, s := range res.S {
		sum += s
		sum2 += s * s
	}
	if math.Abs(tr-sum) > 1e-8*tr {
		t.Errorf("Σσ=%v but tr=%v", sum, tr)
	}
	f := a.FrobNorm()
	if math.Abs(sum2-f*f) > 1e-8*f*f {
		t.Errorf("Σσ²=%v but ‖A‖²=%v", sum2, f*f)
	}
}

func TestTruncationRank(t *testing.T) {
	s := []float64{10, 1, 0.1, 0.01, 0.001}
	if k := TruncationRank(s, 0); k != 5 {
		t.Errorf("tol=0 rank %d, want 5", k)
	}
	if k := TruncationRank(s, 1); k != 1 {
		t.Errorf("tol=1 rank %d, want 1", k)
	}
	// tol=1e-3: tail norm must satisfy ‖S[k:]‖ ≤ tol·‖S‖ ≈ 0.01005.
	if k := TruncationRank(s, 1e-3); k != 3 {
		t.Errorf("tol=1e-3 rank %d, want 3", k)
	}
	if k := TruncationRank([]float64{0, 0}, 1e-3); k != 0 {
		t.Errorf("zero spectrum rank %d, want 0", k)
	}
}

func TestTruncationRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		s := make([]float64, n)
		v := math.Abs(rng.NormFloat64()) + 1
		for i := range s {
			s[i] = v
			v *= rng.Float64()
		}
		tol := math.Pow(10, -1-6*rng.Float64())
		k := TruncationRank(s, tol)
		if k < 1 || k > n {
			return false
		}
		// Verify the defining property.
		total, tail := 0.0, 0.0
		for _, x := range s {
			total += x * x
		}
		for i := k; i < n; i++ {
			tail += s[i] * s[i]
		}
		if tail > tol*tol*total*(1+1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, sh := range [][2]int{{5, 5}, {8, 3}, {3, 8}, {1, 1}, {20, 6}} {
		a := randMatrix(sh[0], sh[1], rng)
		f := QR(a)
		q, r := f.ThinQ(), f.R()
		rec := NewMatrix(a.Rows, a.Cols)
		Gemm(false, false, 1, q, r, 0, rec)
		if d := rec.MaxAbsDiff(a); d > 1e-12*math.Max(1, a.FrobNorm()) {
			t.Errorf("QR %v reconstruction diff %v", sh, d)
		}
		// Orthonormal Q.
		k := min(sh[0], sh[1])
		qtq := NewMatrix(k, k)
		Gemm(true, false, 1, q, q, 0, qtq)
		if d := qtq.MaxAbsDiff(Eye(k)); d > 1e-12 {
			t.Errorf("QR %v: QᵀQ−I = %v", sh, d)
		}
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	r := QR(randMatrix(7, 4, rng)).R()
	for j := 0; j < r.Cols; j++ {
		for i := j + 1; i < r.Rows; i++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v, want 0", i, j, r.At(i, j))
			}
		}
	}
}

func TestApplyQMatchesThinQ(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, sh := range [][2]int{{10, 4}, {6, 6}, {12, 2}} {
		f := QR(randMatrix(sh[0], sh[1], rng))
		k := min(sh[0], sh[1])
		x := randMatrix(k, 3, rng)
		want := NewMatrix(sh[0], 3)
		Gemm(false, false, 1, f.ThinQ(), x, 0, want)
		got := f.ApplyQ(x)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Errorf("shape %v: ApplyQ vs ThinQ diff %v", sh, d)
		}
	}
}

func TestApplyQPanicsOnWrongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	f := QR(randMatrix(8, 3, rng))
	defer func() {
		if recover() == nil {
			t.Error("ApplyQ with wrong row count should panic")
		}
	}()
	f.ApplyQ(NewMatrix(5, 2))
}

func TestQRZeroColumn(t *testing.T) {
	a := NewMatrix(4, 2)
	a.Set(0, 1, 1) // first column all zero
	f := QR(a)
	q, r := f.ThinQ(), f.R()
	rec := NewMatrix(4, 2)
	Gemm(false, false, 1, q, r, 0, rec)
	if d := rec.MaxAbsDiff(a); d > 1e-13 {
		t.Errorf("QR with zero column: diff %v", d)
	}
}

// ThinQ returns the m×k orthonormal factor, k = min(m,n), by accumulating
// the Householder reflectors against the identity.
func (f *QRFactor) ThinQ() *Matrix {
	q := NewMatrix(f.QR.Rows, min(f.QR.Rows, f.QR.Cols))
	f.ThinQInto(q)
	return q
}

// TruncationRank returns the smallest k such that the trailing singular
// values satisfy ‖S[k:]‖₂ ≤ tol·‖S‖₂, i.e. a relative Frobenius-norm
// truncation. It returns at least 1 when any singular value is nonzero.
func TruncationRank(s []float64, tol float64) int {
	total := 0.0
	for _, v := range s {
		total += v * v
	}
	if total == 0 {
		return 0
	}
	thresh := tol * tol * total
	tail := 0.0
	k := len(s)
	for k > 0 {
		v := s[k-1]
		if tail+v*v > thresh {
			break
		}
		tail += v * v
		k--
	}
	return max(k, 1)
}
