package tile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/linalg"
)

// lowRankPlusNoise builds an m×n matrix with numerical rank ~r at scale eps.
func lowRankPlusNoise(m, n, r int, eps float64, rng *rand.Rand) *linalg.Matrix {
	u := linalg.NewMatrix(m, r)
	v := linalg.NewMatrix(n, r)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	a := linalg.NewMatrix(m, n)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	for i := range a.Data {
		a.Data[i] += eps * rng.NormFloat64()
	}
	return a
}

// TestCompressRandomizedAccuracy pins the randomized compressor's accuracy
// contract — ‖A − UVᵀ‖_F ≤ O(tol)·‖A‖_F — across shapes (tall, wide,
// square), tolerances and rank caps, against the plain dense product.
func TestCompressRandomizedAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, n int }{{48, 48}, {90, 48}, {48, 90}, {33, 65}, {7, 100}}
	for _, sh := range shapes {
		for _, tol := range []float64{1e-3, 1e-6, 1e-10} {
			a := lowRankPlusNoise(sh.m, sh.n, 9, tol/50, rng)
			lr := Compress(a, tol, 0)
			d := lr.Dense()
			err := 0.0
			for j := 0; j < a.Cols; j++ {
				ac, dc := a.Col(j), d.Col(j)
				for i := range ac {
					e := ac[i] - dc[i]
					err += e * e
				}
			}
			rel := math.Sqrt(err) / a.FrobNorm()
			if rel > 3*tol {
				t.Errorf("m=%d n=%d tol=%g: relative error %g", sh.m, sh.n, tol, rel)
			}
			if lr.Rank() > 20 {
				t.Errorf("m=%d n=%d tol=%g: rank %d for a ~rank-9 matrix", sh.m, sh.n, tol, lr.Rank())
			}
		}
	}
}

// fullSpectrum returns the singular values of a (rows ≥ cols) in decreasing
// order: Golub–Reinsch on a copy of the whole tile, no sketch.
func fullSpectrum(a *linalg.Matrix) []float64 {
	s := make([]float64, a.Cols)
	if !linalg.GolubReinschSVD(a.Clone(), linalg.NewMatrix(a.Cols, a.Cols), s) {
		panic("tile: full SVD did not converge")
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s
}

// TestCompressMatchesFullSVDRank checks the randomized truncation picks the
// same rank as the full SVD reference on clean low-rank inputs, and that the
// rank cap binds.
func TestCompressMatchesFullSVDRank(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := lowRankPlusNoise(60, 44, 12, 1e-9, rng)
	// The reference: the same relative Frobenius-tail rule applied to the
	// full tile's spectrum.
	want := (&smallSVD{ss: fullSpectrum(a)}).truncate(1e-4, 0, 0)
	got := Compress(a, 1e-4, 0).Rank()
	if got != want {
		t.Errorf("rank %d, full-SVD reference %d", got, want)
	}
	if r := Compress(a, 1e-4, 5).Rank(); r != 5 {
		t.Errorf("rank cap 5 not binding: got %d", r)
	}
}

// TestCompressNearKeepsCompressContract: an expected rank only chooses where
// the range finder starts. On a tile with a geometrically decaying spectrum
// (numerical rank 20 at 1e-6, cap 32) every expectation — none, one whose
// sketch of 2+16 columns cannot capture 20 directions and must grow, the
// exact rank, one past the cap — returns Compress's rank to within one and
// meets the same error bound; under a cap two below that rank it reports the
// tolerance not met.
func TestCompressNearKeepsCompressContract(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const m, n, tol, maxRank = 120, 100, 1e-6, 32
	orth := func(r int) *linalg.Matrix {
		q := linalg.NewMatrix(r, 40)
		for i := range q.Data {
			q.Data[i] = rng.NormFloat64()
		}
		tau := make([]float64, 40)
		qf := linalg.QRInPlace(q, tau)
		out := linalg.NewMatrix(r, 40)
		qf.ThinQInto(out)
		return out
	}
	u, v := orth(m), orth(n)
	for j := 0; j < 40; j++ {
		linalg.Scal(math.Pow(0.5, float64(j)), u.Col(j))
	}
	a := linalg.NewMatrix(m, n)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	want := Compress(a, tol, maxRank).Rank()
	if want < 19 || want > 21 {
		t.Fatalf("Compress found rank %d on a σ_j = 2^-j spectrum at %g", want, tol)
	}
	for _, rank := range []int{0, 2, want, maxRank + 68} {
		for _, at := range []*linalg.Matrix{a, a.Transpose()} {
			lr, ok := CompressNear(at, tol, maxRank, rank)
			if !ok {
				t.Fatalf("%dx%d expecting %d: rank %d tile reported past the cap %d", at.Rows, at.Cols, rank, want, maxRank)
			}
			if d := lr.Rank() - want; d < -1 || d > 1 {
				t.Errorf("%dx%d expecting %d: rank %d, Compress %d", at.Rows, at.Cols, rank, lr.Rank(), want)
			}
			res := lr.Dense()
			for j := 0; j < at.Cols; j++ {
				linalg.Axpy(-1, at.Col(j), res.Col(j))
			}
			if rel := res.FrobNorm() / at.FrobNorm(); rel > 3*tol {
				t.Errorf("%dx%d expecting %d: relative error %g", at.Rows, at.Cols, rank, rel)
			}
			// A cap below the numerical rank is reported, not truncated to.
			if lr, ok := CompressNear(at, tol, want-2, rank); ok {
				t.Errorf("%dx%d expecting %d: rank-%d tile accepted under the cap %d", at.Rows, at.Cols, rank, lr.Rank(), want-2)
			}
		}
	}
}

// decaying builds an m×n matrix with singular values decay^k on random
// orthogonal-ish factors: where decay^limit sits against tol decides whether
// the capped sketch's capture test is clear, borderline or hopeless.
func decaying(m, n int, decay float64, rng *rand.Rand) *linalg.Matrix {
	r := min(m, n)
	u := linalg.NewMatrix(m, r)
	v := linalg.NewMatrix(n, r)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64() / math.Sqrt(float64(m*n))
	}
	for k := 0; k < r; k++ {
		s := math.Pow(decay, float64(k))
		for i, c := 0, u.Col(k); i < m; i++ {
			c[i] *= s
		}
	}
	a := linalg.NewMatrix(m, n)
	linalg.Gemm(false, true, 1, u, v, 0, a)
	return a
}

// TestCompressWithinMatchesCompress: CompressWithin(a, tol, limit) accepts
// exactly the blocks for which Compress(a, tol, limit+1) lands within limit,
// with bit-equal factors; it may only skip the core SVD (nil tile) on a block
// the full path rejects, and does skip it on every incompressible one.
func TestCompressWithinMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const tol = 1e-4
	for _, sh := range []struct{ m, n int }{{64, 64}, {256, 256}, {64, 96}} {
		limit := min(sh.m, sh.n) / 2
		// tol·decay^-limit: the decay rate at which the spectrum crosses tol
		// exactly at the limit.
		edge := math.Pow(tol, 1/float64(limit))
		blocks := map[string]*linalg.Matrix{
			"compressible":    lowRankPlusNoise(sh.m, sh.n, 6, 1e-9, rng),
			"rank=limit":      lowRankPlusNoise(sh.m, sh.n, limit, 1e-12, rng),
			"rank=limit+1":    lowRankPlusNoise(sh.m, sh.n, limit+1, 1e-12, rng),
			"rank=limit+20":   lowRankPlusNoise(sh.m, sh.n, limit+20, 1e-12, rng),
			"zero":            linalg.NewMatrix(sh.m, sh.n),
			"incompressible":  lowRankPlusNoise(sh.m, sh.n, 1, 1, rng),
			"incompressible2": decaying(sh.m, sh.n, 0.999, rng),
		}
		for _, f := range []float64{0.8, 0.9, 0.95, 0.98, 1, 1.02, 1.05, 1.1, 1.2} {
			blocks[fmt.Sprintf("borderline/%g", f)] = decaying(sh.m, sh.n, math.Pow(edge, 1/f), rng)
		}
		accepted, early := 0, 0
		for name, a := range blocks {
			want := Compress(a, tol, limit+1)
			got, ok := CompressWithin(a, tol, limit)
			if ok != (want.Rank() <= limit) {
				t.Errorf("%dx%d %s: accepted=%v, Compress rank %d against limit %d", sh.m, sh.n, name, ok, want.Rank(), limit)
				continue
			}
			if got == nil {
				early++
				continue
			}
			if !ok && name[:2] == "in" {
				t.Errorf("%dx%d %s: rejected only after the core SVD", sh.m, sh.n, name)
			}
			if got.Rank() != want.Rank() {
				t.Errorf("%dx%d %s: rank %d, Compress %d", sh.m, sh.n, name, got.Rank(), want.Rank())
				continue
			}
			if ok {
				accepted++
			}
			if got.Rank() > 0 && (got.U.MaxAbsDiff(want.U) != 0 || got.V.MaxAbsDiff(want.V) != 0) {
				t.Errorf("%dx%d %s: factors differ from Compress's", sh.m, sh.n, name)
			}
		}
		if accepted < 4 || early < 3 {
			t.Errorf("%dx%d: %d blocks accepted, %d rejected early of %d: the cases do not straddle the limit", sh.m, sh.n, accepted, early, len(blocks))
		}
		t.Logf("%dx%d: %d accepted, %d rejected early, %d blocks", sh.m, sh.n, accepted, early, len(blocks))
	}
}

// TestCompressEdgeCases: empty, zero and tiny tiles.
func TestCompressEdgeCases(t *testing.T) {
	if r := Compress(linalg.NewMatrix(0, 5), 1e-4, 0).Rank(); r != 0 {
		t.Errorf("empty tile rank %d", r)
	}
	if r := Compress(linalg.NewMatrix(10, 8), 1e-4, 0).Rank(); r != 0 {
		t.Errorf("zero tile rank %d", r)
	}
	one := linalg.NewMatrix(1, 1)
	one.Set(0, 0, 3)
	lr := Compress(one, 1e-6, 0)
	if lr.Rank() != 1 || math.Abs(lr.Dense().At(0, 0)-3) > 1e-12 {
		t.Errorf("1x1 tile mishandled: rank %d", lr.Rank())
	}
}

// TestCompressDeterministic pins run-to-run determinism (the sketch stream
// is keyed by shape only), which the worker-count determinism of the
// adaptive engine relies on.
func TestCompressDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := lowRankPlusNoise(50, 40, 8, 1e-8, rng)
	l1 := Compress(a, 1e-5, 0)
	l2 := Compress(a, 1e-5, 0)
	if l1.Rank() != l2.Rank() {
		t.Fatalf("ranks differ: %d vs %d", l1.Rank(), l2.Rank())
	}
	if l1.Rank() > 0 {
		if d := l1.U.MaxAbsDiff(l2.U); d != 0 {
			t.Errorf("U differs by %g between runs", d)
		}
		if d := l1.V.MaxAbsDiff(l2.V); d != 0 {
			t.Errorf("V differs by %g between runs", d)
		}
	}
}

// TestCompressACAConvergenceFlag pins the budget-exhaustion signal the TLR
// assembly fallback relies on.
func TestCompressACAConvergenceFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Numerically full-rank tile with a budget far below its rank.
	full := linalg.NewMatrix(32, 32)
	for i := range full.Data {
		full.Data[i] = rng.NormFloat64()
	}
	row, col := runsOf(full)
	if _, ok := CompressACAConv(32, 32, row, col, 1e-8, 8); ok {
		t.Error("full-rank tile reported converged within rank budget 8")
	}
	// Clean low-rank tile converges within budget.
	lo := lowRankPlusNoise(32, 32, 4, 1e-12, rng)
	row, col = runsOf(lo)
	lt, ok := CompressACAConv(32, 32, row, col, 1e-6, 16)
	if !ok {
		t.Error("rank-4 tile did not converge within budget 16")
	}
	d := lt.Dense()
	if diff := d.MaxAbsDiff(lo); diff > 1e-4*lo.FrobNorm() {
		t.Errorf("ACA reconstruction error %g", diff)
	}
}

// BenchmarkKernelsLowRankUpdate measures the steady-state low-rank update
// (AddLowRank: concat + QR + small SVD + truncate) — the recompression hot
// loop of the TLR/adaptive factorization — with allocation reporting. The
// pre-PR3 implementation allocated ~30 objects per update; the pooled
// workspace path reports (near) zero.
func BenchmarkKernelsLowRankUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m, k1, k2 := 90, 17, 17
	base := Compress(lowRankPlusNoise(m, m, k1, 1e-9, rng), 1e-6, 0)
	u2 := linalg.NewMatrix(m, k2)
	v2 := linalg.NewMatrix(m, k2)
	for i := range u2.Data {
		u2.Data[i] = 1e-3 * rng.NormFloat64()
		v2.Data[i] = 1e-3 * rng.NormFloat64()
	}
	t := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.AddLowRank(-1, u2, v2, 1e-6, 0)
		if t.Rank() == 0 {
			b.Fatal("tile collapsed")
		}
	}
}

// BenchmarkKernelsCompress measures the randomized compressor against the
// full SVD on a covariance-like tile.
func BenchmarkKernelsCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := lowRankPlusNoise(96, 96, 14, 1e-8, rng)
	for _, cap := range []int{0, 24} {
		b.Run(fmt.Sprintf("randomized/cap=%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lr := Compress(a, 1e-4, cap)
				linalg.PutMat(lr.U)
				linalg.PutMat(lr.V)
			}
		})
	}
	b.Run("fullSVD", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fullSpectrum(a)[0]
		}
	})
}
