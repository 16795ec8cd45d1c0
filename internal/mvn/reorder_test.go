package mvn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
)

func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// heterogeneousProblem builds an MVN problem whose limits vary widely, so
// reordering has something to gain.
func heterogeneousProblem(side int) ([]float64, []float64, *linalg.Matrix) {
	g := geo.RegularGrid(side, side)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	n := g.Len()
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = -3 + 4*float64(i%7)/6 // mixes tight and loose lower limits
		b[i] = math.Inf(1)
	}
	return a, b, sigma
}

func TestUnivariateReorderIsPermutation(t *testing.T) {
	a, b, sigma := heterogeneousProblem(5)
	perm := UnivariateReorder(a, b, sigma)
	if !isPermutation(perm, 25) {
		t.Fatalf("not a permutation: %v", perm)
	}
}

func TestUnivariateReorderPutsTightestFirst(t *testing.T) {
	// With independent variables the first selected variable must be the
	// one with the smallest marginal interval probability.
	n := 6
	sigma := linalg.Eye(n)
	a := []float64{-1, 2.5, -2, 0, -3, 1}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Inf(1)
	}
	perm := UnivariateReorder(a, b, sigma)
	if perm[0] != 1 { // a=2.5 gives the smallest P(X > a)
		t.Errorf("first variable %d, want 1 (tightest limit)", perm[0])
	}
	if perm[n-1] != 4 { // a=-3 is the loosest
		t.Errorf("last variable %d, want 4 (loosest limit)", perm[n-1])
	}
}

func TestReorderingPreservesProbability(t *testing.T) {
	// The MVN probability is invariant under joint permutation.
	a, b, sigma := heterogeneousProblem(4)
	l, _ := linalg.Cholesky(sigma)
	orig := SOVSequential(a, b, l, qmc.NewRichtmyer(16), 30000)
	perm := UnivariateReorder(a, b, sigma)
	ap, bp, sp := PermuteProblem(a, b, sigma, perm)
	lp, err := linalg.Cholesky(sp)
	if err != nil {
		t.Fatal(err)
	}
	reord := SOVSequential(ap, bp, lp, qmc.NewRichtmyer(16), 30000)
	if math.Abs(orig-reord) > 2e-3*math.Max(orig, 1e-6)+2e-4 {
		t.Errorf("probability changed under reordering: %v vs %v", orig, reord)
	}
}

func TestUnivariateReorderReducesVariance(t *testing.T) {
	// Across randomized QMC replicates the reordered problem should show
	// no larger spread than the original (usually strictly smaller).
	a, b, sigma := heterogeneousProblem(5)
	perm := UnivariateReorder(a, b, sigma)
	ap, bp, sp := PermuteProblem(a, b, sigma, perm)
	l, _ := linalg.Cholesky(sigma)
	lp, _ := linalg.Cholesky(sp)
	rng := rand.New(rand.NewSource(4))
	const reps, N = 24, 400
	spread := func(lm *linalg.Matrix, av, bv []float64) float64 {
		vals := make([]float64, reps)
		mean := 0.0
		for r := range vals {
			gen := qmc.NewRichtmyerShifted(25, qmc.RandomShift(25, rng))
			vals[r] = SOVSequential(av, bv, lm, gen, N)
			mean += vals[r]
		}
		mean /= reps
		ss := 0.0
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		return math.Sqrt(ss/(reps-1)) / math.Max(mean, 1e-300)
	}
	so := spread(l, a, b)
	sr := spread(lp, ap, bp)
	if sr > so*1.6 {
		t.Errorf("reordering inflated relative spread: %v -> %v", so, sr)
	}
	t.Logf("relative stderr: original %.3g, reordered %.3g", so, sr)
}

func TestBlockReorderKeepsBlocksContiguous(t *testing.T) {
	a, b, sigma := heterogeneousProblem(4) // n=16
	perm := BlockReorder(a, b, sigma, 4)
	if !isPermutation(perm, 16) {
		t.Fatalf("not a permutation: %v", perm)
	}
	// Every aligned group of 4 in the output must be a contiguous original
	// block in order.
	for g := 0; g < 4; g++ {
		base := perm[4*g]
		if base%4 != 0 {
			t.Fatalf("group %d does not start at a block boundary: %v", g, perm)
		}
		for k := 1; k < 4; k++ {
			if perm[4*g+k] != base+k {
				t.Fatalf("group %d not contiguous: %v", g, perm)
			}
		}
	}
}

func TestBlockReorderWithPMVN(t *testing.T) {
	// End-to-end: block-reordered problem through the tiled backend matches
	// the unreordered probability.
	a, b, sigma := heterogeneousProblem(4)
	perm := BlockReorder(a, b, sigma, 8)
	ap, bp, sp := PermuteProblem(a, b, sigma, perm)

	rt := taskrt.New(2)
	defer rt.Shutdown()
	run := func(av, bv []float64, s *linalg.Matrix) float64 {
		return PMVN(rt, denseFactorOn(t, rt, s, 8), av, bv, Options{N: 20000}).Prob
	}
	p0 := run(a, b, sigma)
	p1 := run(ap, bp, sp)
	if math.Abs(p0-p1) > 3e-3*math.Max(p0, 1e-6)+3e-4 {
		t.Errorf("block reordering changed probability: %v vs %v", p0, p1)
	}
}

func TestTruncatedNormalMean(t *testing.T) {
	// Symmetric interval: mean 0.
	if m := truncatedNormalMean(-1, 1); math.Abs(m) > 1e-15 {
		t.Errorf("symmetric mean %v", m)
	}
	// One-sided (a, ∞): mean = φ(a)/(1−Φ(a)) > a.
	m := truncatedNormalMean(1, math.Inf(1))
	want := 1.5251352761609807 // φ(1)/(1−Φ(1))
	if math.Abs(m-want) > 1e-12 {
		t.Errorf("one-sided mean %v, want %v", m, want)
	}
	// Degenerate interval falls back to the midpoint.
	if m := truncatedNormalMean(50, 51); math.IsNaN(m) || m < 50 || m > 51 {
		t.Errorf("degenerate mean %v", m)
	}
}

func TestPermuteProblemRoundTrip(t *testing.T) {
	a, b, sigma := heterogeneousProblem(3)
	perm := UnivariateReorder(a, b, sigma)
	ap, bp, sp := PermuteProblem(a, b, sigma, perm)
	// Inverse permutation restores the problem.
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	a2, b2, s2 := PermuteProblem(ap, bp, sp, inv)
	for i := range a {
		if a2[i] != a[i] || b2[i] != b[i] {
			t.Fatal("limits not restored")
		}
	}
	if d := s2.MaxAbsDiff(sigma); d != 0 {
		t.Errorf("covariance not restored: %v", d)
	}
}
