package mvn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
)

// TestPMVNProbabilityAxioms checks, over random problems, that the
// estimate lies in [0,1], grows when the box grows, and that disjointly
// splitting an interval in one coordinate adds up.
func TestPMVNProbabilityAxioms(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 3 + rng.Intn(3)
		n := side * side
		g := geo.RegularGrid(side, side)
		sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.05 + 0.3*rng.Float64()})
		fac := denseFactorOn(t, rt, sigma, max(4, n/3))
		a := make([]float64, n)
		b := make([]float64, n)
		a2 := make([]float64, n)
		b2 := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = -0.5 - rng.Float64()
			b[i] = 0.5 + rng.Float64()
			a2[i] = a[i] - 0.5 // strictly larger box
			b2[i] = b[i] + 0.5
		}
		const N = 3000
		p := PMVN(rt, fac, a, b, Options{N: N}).Prob
		pBig := PMVN(rt, fac, a2, b2, Options{N: N}).Prob
		if p < 0 || p > 1 || pBig < 0 || pBig > 1 {
			return false
		}
		if pBig < p-5e-3 { // monotone up to QMC noise
			return false
		}
		// Additivity in coordinate 0: [a0,m) ∪ [m,b0) = [a0,b0).
		m := 0.5 * (a[0] + b[0])
		bl := append([]float64(nil), b...)
		bl[0] = m
		al := append([]float64(nil), a...)
		al[0] = m
		pLeft := PMVN(rt, fac, a, bl, Options{N: N}).Prob
		pRight := PMVN(rt, fac, al, b, Options{N: N}).Prob
		return math.Abs((pLeft+pRight)-p) < 2e-2*math.Max(p, 1e-3)+5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestSOVScaleInvariance: scaling Σ by c² and the limits by c leaves the
// probability unchanged.
func TestSOVScaleInvariance(t *testing.T) {
	g := geo.RegularGrid(4, 4)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	n := 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 0.8
	}
	l1, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	p1 := SOVSequential(a, b, l1, qmc.NewRichtmyer(n), 5000)
	const c = 3.7
	scaled := sigma.Clone()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			scaled.Set(i, j, sigma.At(i, j)*c*c)
		}
	}
	as := make([]float64, n)
	bs := make([]float64, n)
	for i := range a {
		as[i] = a[i] * c
		bs[i] = b[i] * c
	}
	l2, err := linalg.Cholesky(scaled)
	if err != nil {
		t.Fatal(err)
	}
	p2 := SOVSequential(as, bs, l2, qmc.NewRichtmyer(n), 5000)
	if math.Abs(p1-p2) > 1e-12 {
		t.Errorf("scale invariance broken: %v vs %v", p1, p2)
	}
}

// TestPMVNComplementUnderInclusion: P(a ≤ X ≤ b) + P(X outside) can't be
// checked directly with SOV, but P over the full space must be 1 and over a
// tiny box near machine-zero.
func TestPMVNExtremeBoxes(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	g := geo.RegularGrid(4, 4)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.1})
	fac := denseFactorOn(t, rt, sigma, 8)
	n := 16
	wide := make([]float64, n)
	for i := range wide {
		wide[i] = 50
	}
	neg := make([]float64, n)
	for i := range neg {
		neg[i] = -50
	}
	if p := PMVN(rt, fac, neg, wide, Options{N: 100}).Prob; math.Abs(p-1) > 1e-12 {
		t.Errorf("±50 box probability %v", p)
	}
	tiny := make([]float64, n)
	tinyB := make([]float64, n)
	for i := range tiny {
		tiny[i] = 0
		tinyB[i] = 1e-9
	}
	if p := PMVN(rt, fac, tiny, tinyB, Options{N: 100}).Prob; p > 1e-12 {
		t.Errorf("sliver box probability %v", p)
	}
}
