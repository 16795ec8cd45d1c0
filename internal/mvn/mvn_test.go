package mvn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// equicorrOracle integrates the 1-D reduction of the equicorrelated MVN
// orthant probability P(X_i ≤ b_i ∀i) for Σ = (1−ρ)I + ρ11ᵀ:
// ∫ φ(t)·Π Φ((b_i − √ρ·t)/√(1−ρ)) dt.
func equicorrOracle(b []float64, rho float64) float64 {
	f := func(t float64) float64 {
		v := math.Exp(-0.5*t*t) / math.Sqrt(2*math.Pi) // φ(t)
		for _, bi := range b {
			v *= stats.Phi((bi - math.Sqrt(rho)*t) / math.Sqrt(1-rho))
		}
		return v
	}
	const lim, n = 8.5, 4000
	h := 2 * lim / n
	s := f(-lim) + f(lim)
	for i := 1; i < n; i++ {
		x := -lim + float64(i)*h
		if i%2 == 1 {
			s += 4 * f(x)
		} else {
			s += 2 * f(x)
		}
	}
	return s * h / 3
}

func equicorrMatrix(n int, rho float64) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				m.Set(i, j, 1)
			} else {
				m.Set(i, j, rho)
			}
		}
	}
	return m
}

func negInf(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(-1)
	}
	return v
}

func posInf(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

func TestChainStepBasics(t *testing.T) {
	// Full interval: factor 1.
	f, y := chainStep(math.Inf(-1), math.Inf(1), 0.5)
	if f != 1 {
		t.Errorf("full-interval factor %v", f)
	}
	if y != 0 { // Φ⁻¹(0.5)
		t.Errorf("median draw y = %v, want 0", y)
	}
	// Empty interval: factor 0, finite y.
	f, y = chainStep(2, 1, 0.5)
	if f != 0 || math.IsInf(y, 0) || math.IsNaN(y) {
		t.Errorf("empty interval: f=%v y=%v", f, y)
	}
	// Deep-tail interval with underflowed probability: finite y.
	f, y = chainStep(40, 41, 0.5)
	if f != 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		t.Errorf("underflow interval: f=%v y=%v", f, y)
	}
	// Factor equals Φ(b′)−Φ(a′).
	f, _ = chainStep(-1, 1, 0.3)
	want := stats.Phi(1) - stats.Phi(-1)
	if math.Abs(f-want) > 1e-14 {
		t.Errorf("factor %v, want %v", f, want)
	}
}

func TestSOVSequentialIndependent(t *testing.T) {
	// Diagonal Σ: the SOV estimate is EXACT for every sample (no chain
	// coupling), so even N=1 gives the product form.
	n := 8
	v := make([]float64, n)
	l := linalg.NewMatrix(n, n)
	a := make([]float64, n)
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		v[i] = 0.5 + rng.Float64()
		l.Set(i, i, math.Sqrt(v[i]))
		a[i] = -1 - rng.Float64()
		b[i] = rng.Float64()
	}
	want := ProductForm(a, b, v)
	got := SOVSequential(a, b, l, qmc.NewRichtmyer(n), 3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("independent case: %v, want %v", got, want)
	}
}

func TestSOVSequentialBivariateOrthant(t *testing.T) {
	// P(X≤0, Y≤0) for correlation ρ is 1/4 + asin(ρ)/(2π).
	for _, rho := range []float64{-0.5, 0.0, 0.3, 0.7, 0.9} {
		sigma := equicorrMatrix(2, math.Abs(rho))
		sigma.Set(0, 1, rho)
		sigma.Set(1, 0, rho)
		l, err := linalg.Cholesky(sigma)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.25 + math.Asin(rho)/(2*math.Pi)
		got := SOVSequential(negInf(2), []float64{0, 0}, l, qmc.NewRichtmyer(2), 20000)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("ρ=%v: orthant %v, want %v", rho, got, want)
		}
	}
}

func TestSOVSequentialTrivariateOrthant(t *testing.T) {
	// Equicorrelated n=3, ρ=0.5: P(all ≤ 0) = 1/8 + 3·asin(ρ)/(4π) = 1/4.
	sigma := equicorrMatrix(3, 0.5)
	l, _ := linalg.Cholesky(sigma)
	got := SOVSequential(negInf(3), make([]float64, 3), l, qmc.NewRichtmyer(3), 20000)
	if math.Abs(got-0.25) > 2e-3 {
		t.Errorf("trivariate orthant %v, want 0.25", got)
	}
}

func TestSOVSequentialEquicorrelated(t *testing.T) {
	n := 16
	rho := 0.4
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.5 + 0.1*float64(i%3)
	}
	want := equicorrOracle(b, rho)
	l, _ := linalg.Cholesky(equicorrMatrix(n, rho))
	got := SOVSequential(negInf(n), b, l, qmc.NewRichtmyer(n), 30000)
	if math.Abs(got-want) > 3e-3 {
		t.Errorf("equicorrelated: %v, want %v", got, want)
	}
}

// factorOn factorizes sigma on rt, read in place as a session reads an
// explicit Σ: the dense layout, or the TLR layout at tol > 0.
func factorOn(t testing.TB, rt taskrt.Submitter, sigma *linalg.Matrix, ts int, tol float64) *Factor {
	t.Helper()
	g := engine.NewGrid(sigma.Rows, ts)
	fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	layout := engine.Policy{Band: math.MaxInt}
	if tol > 0 {
		layout = engine.Policy{Tol: tol, RankFrac: 0.5}
	}
	if err := engine.PotrfStream(rt, g, layout.EntryAssembler(g, fill, true)); err != nil {
		t.Fatal(err)
	}
	return NewFactor(g)
}

// denseFactorOn factorizes sigma in the dense layout on rt.
func denseFactorOn(t testing.TB, rt taskrt.Submitter, sigma *linalg.Matrix, ts int) *Factor {
	t.Helper()
	return factorOn(t, rt, sigma, ts, 0)
}

// tlrFactorOn factorizes sigma in the TLR layout at tol on rt.
func tlrFactorOn(t testing.TB, rt taskrt.Submitter, sigma *linalg.Matrix, ts int, tol float64) *Factor {
	t.Helper()
	return factorOn(t, rt, sigma, ts, tol)
}

func denseFactor(t *testing.T, sigma *linalg.Matrix, ts int) *Factor {
	t.Helper()
	rt := taskrt.New(2)
	defer rt.Shutdown()
	return denseFactorOn(t, rt, sigma, ts)
}

func TestPMVNMatchesSequential(t *testing.T) {
	// Same generator, same chains: the tiled algorithm computes the same
	// recursion, so results agree to floating-point reordering noise.
	g := geo.RegularGrid(6, 6)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.15})
	n := 36
	l, _ := linalg.Cholesky(sigma)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -0.3
		b[i] = math.Inf(1)
	}
	const N = 500
	want := SOVSequential(a, b, l, qmc.NewRichtmyer(n), N)

	f := denseFactor(t, sigma, 9)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	got := PMVN(rt, f, a, b, Options{N: N})
	if math.Abs(got.Prob-want) > 1e-9 {
		t.Errorf("tiled %v vs sequential %v", got.Prob, want)
	}
}

func TestPMVNIndependentExact(t *testing.T) {
	// Identity covariance in tiled form: must reproduce the product form.
	n := 20
	sigma := linalg.Eye(n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -2 + 0.1*float64(i)
		b[i] = 1 + 0.05*float64(i)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	want := ProductForm(a, b, v)
	f := denseFactor(t, sigma, 7)
	rt := taskrt.New(3)
	defer rt.Shutdown()
	got := PMVN(rt, f, a, b, Options{N: 64})
	if math.Abs(got.Prob-want) > 1e-12 {
		t.Errorf("independent tiled: %v, want %v", got.Prob, want)
	}
}

func TestPMVNEquicorrelatedOracle(t *testing.T) {
	n := 25
	rho := 0.5
	sigma := equicorrMatrix(n, rho)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	want := equicorrOracle(b, rho)
	f := denseFactor(t, sigma, 8)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	got := PMVN(rt, f, negInf(n), b, Options{N: 20000})
	if math.Abs(got.Prob-want) > 3e-3 {
		t.Errorf("PMVN %v, oracle %v", got.Prob, want)
	}
}

func TestPMVNDeterministicAcrossWorkers(t *testing.T) {
	g := geo.RegularGrid(5, 5)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	a := make([]float64, 25)
	b := make([]float64, 25)
	for i := range a {
		a[i] = -0.5
		b[i] = 2
	}
	var ref float64
	for i, w := range []int{1, 4} {
		f := denseFactor(t, sigma, 5)
		rt := taskrt.New(w)
		res := PMVN(rt, f, a, b, Options{N: 300})
		rt.Shutdown()
		if i == 0 {
			ref = res.Prob
		} else if res.Prob != ref {
			t.Errorf("worker count changed result: %v vs %v", res.Prob, ref)
		}
	}
}

func TestPMVNTLRMatchesDense(t *testing.T) {
	g := geo.RegularGrid(8, 8)
	k := &cov.Exponential{Sigma2: 1, Range: 0.234}
	sigma := cov.Matrix(g, k)
	n := 64
	a := make([]float64, n)
	b := posInf(n)
	for i := range a {
		a[i] = -0.2
	}
	fD := denseFactor(t, sigma, 16)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	dense := PMVN(rt, fD, a, b, Options{N: 4000})

	tlrRes := PMVN(rt, tlrFactorOn(t, rt, sigma, 16, 1e-9), a, b, Options{N: 4000})
	if d := math.Abs(dense.Prob - tlrRes.Prob); d > 1e-6 {
		t.Errorf("TLR (%v) vs dense (%v) differ by %v", tlrRes.Prob, dense.Prob, d)
	}
	// Looser compression keeps the probability within application accuracy
	// (the paper's 1e-3 observation).
	loose := PMVN(rt, tlrFactorOn(t, rt, sigma, 16, 1e-3), a, b, Options{N: 4000})
	if d := math.Abs(dense.Prob - loose.Prob); d > 5e-3 {
		t.Errorf("1e-3 TLR deviates too much: %v vs %v", loose.Prob, dense.Prob)
	}
}

func TestPMVNReplicatesGiveErrorEstimate(t *testing.T) {
	n := 16
	sigma := equicorrMatrix(n, 0.3)
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.8
	}
	f := denseFactor(t, sigma, 8)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	res := PMVN(rt, f, negInf(n), b, Options{N: 2000, Replicates: 5})
	if res.StdErr <= 0 {
		t.Error("replicated run should report a positive error estimate")
	}
	want := equicorrOracle(b, 0.3)
	if math.Abs(res.Prob-want) > 10*res.StdErr+2e-3 {
		t.Errorf("estimate %v±%v inconsistent with oracle %v", res.Prob, res.StdErr, want)
	}
}

func TestPMVNHalfOpenInfiniteLimits(t *testing.T) {
	// a = -∞, b = +∞ gives probability 1 regardless of Σ.
	g := geo.RegularGrid(4, 4)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 2, Range: 0.3})
	f := denseFactor(t, sigma, 4)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	res := PMVN(rt, f, negInf(16), posInf(16), Options{N: 50})
	if res.Prob != 1 {
		t.Errorf("unbounded box probability %v, want 1", res.Prob)
	}
}

func TestPMVNEmptyBoxIsZero(t *testing.T) {
	sigma := linalg.Eye(6)
	a := []float64{1, 1, 1, 1, 1, 1}
	b := []float64{0, 0, 0, 0, 0, 0} // b < a: empty box
	f := denseFactor(t, sigma, 3)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	if res := PMVN(rt, f, a, b, Options{N: 40}); res.Prob != 0 {
		t.Errorf("empty box probability %v", res.Prob)
	}
}

func TestMCPlainMatchesProductForm(t *testing.T) {
	n := 5
	l := linalg.Eye(n)
	a := []float64{-1, -1, -1, -1, -1}
	b := []float64{1, 1, 1, 1, 1}
	v := []float64{1, 1, 1, 1, 1}
	want := ProductForm(a, b, v)
	got := MCPlain(a, b, l, 200000, rand.New(rand.NewSource(7)))
	if math.Abs(got-want) > 5e-3 {
		t.Errorf("MC %v, product form %v", got, want)
	}
}

func TestMCPlainAgreesWithPMVN(t *testing.T) {
	g := geo.RegularGrid(5, 5)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	l, _ := linalg.Cholesky(sigma)
	a := make([]float64, 25)
	for i := range a {
		a[i] = -0.4
	}
	b := posInf(25)
	mc := MCPlain(a, b, l, 100000, rand.New(rand.NewSource(3)))
	f := denseFactor(t, sigma, 5)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	res := PMVN(rt, f, a, b, Options{N: 10000})
	if math.Abs(mc-res.Prob) > 5e-3 {
		t.Errorf("MC %v vs PMVN %v", mc, res.Prob)
	}
}

func TestProductForm(t *testing.T) {
	// One dimension, unit variance, [-1,1].
	p := ProductForm([]float64{-1}, []float64{1}, []float64{1})
	want := stats.Phi(1) - stats.Phi(-1)
	if math.Abs(p-want) > 1e-15 {
		t.Errorf("ProductForm 1D = %v, want %v", p, want)
	}
	// Variance scaling: [-2,2] with variance 4 equals [-1,1] with variance 1.
	p2 := ProductForm([]float64{-2}, []float64{2}, []float64{4})
	if math.Abs(p2-want) > 1e-15 {
		t.Errorf("variance scaling broken: %v", p2)
	}
}
