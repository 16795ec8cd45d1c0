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

// studentTCDF is the Student-t CDF at an integer ν in closed form
// (Abramowitz & Stegun 26.7.3–4). With θ = atan(t/√ν), 2F − 1 is
// sinθ·(1 + ½cos²θ + (1·3)/(2·4)cos⁴θ + … + cos^{ν−2}θ term) for even ν, and
// (2/π)(θ + sinθ·(cosθ + (2/3)cos³θ + … + cos^{ν−2}θ term)) for odd ν.
func studentTCDF(t float64, nu int) float64 {
	th := math.Atan(t / math.Sqrt(float64(nu)))
	s, c2 := math.Sin(th), math.Cos(th)*math.Cos(th)
	var a float64
	if nu%2 == 0 {
		term, sum := 1.0, 1.0
		for k := 2; k <= nu-2; k += 2 {
			term *= float64(k-1) / float64(k) * c2
			sum += term
		}
		a = s * sum
	} else {
		a = th
		if nu > 1 {
			term := math.Cos(th)
			sum := term
			for k := 3; k <= nu-2; k += 2 {
				term *= float64(k-1) / float64(k) * c2
				sum += term
			}
			a += s * sum
		}
		a *= 2 / math.Pi
	}
	return (1 + a) / 2
}

func TestSOVSequentialTUnivariateExact(t *testing.T) {
	// 1-D MVT: T(−∞, t; 1, ν) is the Student-t CDF, exact in closed form.
	l := linalg.Eye(1)
	for _, nu := range []float64{1, 2, 5, 30} {
		for _, tt := range []float64{-1.5, 0, 0.8, 2.5} {
			want := studentTCDF(tt, int(nu))
			got := SOVSequentialT([]float64{math.Inf(-1)}, []float64{tt}, l, nu, qmc.NewRichtmyer(2), 20000)
			if math.Abs(got-want) > 3e-3 {
				t.Errorf("ν=%v t=%v: %v, want %v", nu, tt, got, want)
			}
		}
	}
}

func TestSOVSequentialTLimitsToMVN(t *testing.T) {
	// ν → ∞ recovers the MVN probability.
	sigma := equicorrMatrix(8, 0.4)
	l, _ := linalg.Cholesky(sigma)
	b := make([]float64, 8)
	for i := range b {
		b[i] = 0.7
	}
	mvnP := SOVSequential(negInf(8), b, l, qmc.NewRichtmyer(8), 20000)
	mvtP := SOVSequentialT(negInf(8), b, l, 1e7, qmc.NewRichtmyer(9), 20000)
	if math.Abs(mvnP-mvtP) > 3e-3 {
		t.Errorf("ν→∞ MVT %v vs MVN %v", mvtP, mvnP)
	}
}

// mcMVT is a plain-MC oracle: x = L·z·√(ν/χ²), count box hits.
func mcMVT(a, b []float64, l *linalg.Matrix, nu float64, samples int, rng *rand.Rand) float64 {
	n := l.Rows
	z := make([]float64, n)
	hits := 0
	for s := 0; s < samples; s++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		chi2 := 0.0
		for k := 0; k < int(nu); k++ {
			g := rng.NormFloat64()
			chi2 += g * g
		}
		scale := math.Sqrt(nu / chi2)
		inside := true
		for i := 0; i < n && inside; i++ {
			acc := 0.0
			for j := 0; j <= i; j++ {
				acc += l.At(i, j) * z[j]
			}
			x := acc * scale
			if x <= a[i] || x > b[i] {
				inside = false
			}
		}
		if inside {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func TestSOVSequentialTAgainstMC(t *testing.T) {
	g := geo.RegularGrid(3, 3)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.3})
	l, _ := linalg.Cholesky(sigma)
	a := make([]float64, 9)
	b := make([]float64, 9)
	for i := range a {
		a[i] = -1.2
		b[i] = 1.5
	}
	const nu = 4
	want := mcMVT(a, b, l, nu, 300000, rand.New(rand.NewSource(1)))
	got := SOVSequentialT(a, b, l, nu, qmc.NewRichtmyer(10), 30000)
	if math.Abs(got-want) > 5e-3 {
		t.Errorf("MVT SOV %v vs MC %v", got, want)
	}
}

func TestPMVTMatchesSequential(t *testing.T) {
	g := geo.RegularGrid(5, 5)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	l, _ := linalg.Cholesky(sigma)
	a := make([]float64, 25)
	b := make([]float64, 25)
	for i := range a {
		a[i] = -0.8
		b[i] = math.Inf(1)
	}
	const nu, N = 6, 800
	want := SOVSequentialT(a, b, l, nu, qmc.NewRichtmyer(26), N)
	f := denseFactor(t, sigma, 5)
	rt := taskrt.New(3)
	defer rt.Shutdown()
	got := PMVT(rt, f, a, b, nu, Options{N: N})
	if math.Abs(got.Prob-want) > 1e-9 {
		t.Errorf("tiled MVT %v vs sequential %v", got.Prob, want)
	}
}

func TestPMVTAgainstMCOracle(t *testing.T) {
	// The common χ² scale couples all coordinates, so simple "heavier
	// tails" intuitions fail in high dimension; validate the tiled MVT
	// directly against the plain-MC oracle at two ν values.
	sigma := equicorrMatrix(9, 0.3)
	l, _ := linalg.Cholesky(sigma)
	b := make([]float64, 9)
	a := make([]float64, 9)
	for i := range b {
		a[i] = -1
		b[i] = 1
	}
	f := denseFactor(t, sigma, 3)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	for _, nu := range []float64{3, 10} {
		want := mcMVT(a, b, l, nu, 400000, rand.New(rand.NewSource(2)))
		got := PMVT(rt, f, a, b, nu, Options{N: 20000}).Prob
		if math.Abs(got-want) > 4e-3 {
			t.Errorf("ν=%v: PMVT %v vs MC %v", nu, got, want)
		}
	}
	// ν → ∞ recovers PMVN on the same backend.
	pNorm := PMVN(rt, f, a, b, Options{N: 20000}).Prob
	pT := PMVT(rt, f, a, b, 1e7, Options{N: 20000}).Prob
	if math.Abs(pNorm-pT) > 2e-3 {
		t.Errorf("ν→∞: PMVT %v vs PMVN %v", pT, pNorm)
	}
}

func TestPMVTPanicsOnBadInput(t *testing.T) {
	f := denseFactor(t, linalg.Eye(4), 2)
	rt := taskrt.New(1)
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("want panic for nu <= 0")
		}
	}()
	PMVT(rt, f, make([]float64, 4), make([]float64, 4), 0, Options{N: 10})
}

func TestChiScaleMedian(t *testing.T) {
	// The median scale for ν dof is √(median(χ²_ν)/ν) < 1 and → 1 as ν→∞.
	s5 := chiScale(0.5, 5)
	s1000 := chiScale(0.5, 1000)
	if s5 >= 1 || s1000 >= 1 {
		t.Errorf("median chi scales %v %v should be < 1", s5, s1000)
	}
	if math.Abs(s1000-1) > 0.01 {
		t.Errorf("large-ν median scale %v should approach 1", s1000)
	}
}
