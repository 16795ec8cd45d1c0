package mvn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/taskrt"
)

// TestPMVNSweepF32MatchesF64 is the accuracy property for SweepF32: with the
// inter-tile propagation in float32 (the diagonal kernel and the probability
// accumulation stay f64), the estimate must land within the QMC error bar of
// the f64 sweep on the same randomized points — the per-step rounding of
// order 2⁻²⁴ is far below the QMC sampling error at any practical N. Covers
// dense and TLR factors across the three query regimes.
func TestPMVNSweepF32MatchesF64(t *testing.T) {
	g := geo.RegularGrid(8, 8)
	k := &cov.Exponential{Sigma2: 1, Range: 0.15}
	sigma := cov.Matrix(g, k)
	n := 64
	rt := taskrt.New(4)
	defer rt.Shutdown()

	factors := map[string]*Factor{
		"dense": denseFactor(t, sigma, 16),
		"tlr":   tlrFactorOn(t, rt, sigma, 16, 1e-7),
	}

	regimes := []struct {
		name string
		a, b float64 // broadcast limits; ±Inf allowed
	}{
		{"orthant", math.Inf(-1), 0.8},
		{"excursion", -0.3, math.Inf(1)},
		{"wide", -1.5, 2.0},
	}
	for fname, f := range factors {
		for _, rg := range regimes {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i], b[i] = rg.a, rg.b
			}
			opt := Options{N: 2000, Replicates: 4}
			r64 := PMVN(rt, f, a, b, opt)
			opt.SweepF32 = true
			r32 := PMVN(rt, f, a, b, opt)
			bar := 4*(r32.StdErr+r64.StdErr) + 1e-4*r64.Prob + 1e-9
			if d := math.Abs(r32.Prob - r64.Prob); d > bar {
				t.Errorf("%s/%s: f32 %v vs f64 %v differ by %v > error bar %v",
					fname, rg.name, r32.Prob, r64.Prob, d, bar)
			}
			if r32.StdErr <= 0 {
				t.Errorf("%s/%s: f32 sweep reported non-positive stderr %v",
					fname, rg.name, r32.StdErr)
			}
		}
	}
}

// TestPMVTSweepF32MatchesF64 repeats the accuracy property on the Student-t
// path: the chi-scale applied to the limits runs in f64, only the
// propagation narrows.
func TestPMVTSweepF32MatchesF64(t *testing.T) {
	g := geo.RegularGrid(6, 6)
	k := &cov.Exponential{Sigma2: 1, Range: 0.2}
	sigma := cov.Matrix(g, k)
	n := 36
	f := denseFactor(t, sigma, 9)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i], b[i] = -0.5, 1.5
	}
	opt := Options{N: 2000, Replicates: 4}
	r64 := PMVT(rt, f, a, b, 7, opt)
	opt.SweepF32 = true
	r32 := PMVT(rt, f, a, b, 7, opt)
	bar := 4*(r32.StdErr+r64.StdErr) + 1e-4*r64.Prob + 1e-9
	if d := math.Abs(r32.Prob - r64.Prob); d > bar {
		t.Errorf("mvt: f32 %v vs f64 %v differ by %v > error bar %v",
			r32.Prob, r64.Prob, d, bar)
	}
}

// TestPMVNSweepF32Deterministic pins that the sweep under SweepF32, as
// without it, is bit-deterministic across worker counts.
func TestPMVNSweepF32Deterministic(t *testing.T) {
	g := geo.RegularGrid(5, 5)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	a := make([]float64, 25)
	b := make([]float64, 25)
	for i := range a {
		a[i], b[i] = -0.5, 2
	}
	var ref float64
	for i, w := range []int{1, 4} {
		f := denseFactor(t, sigma, 5)
		rt := taskrt.New(w)
		res := PMVN(rt, f, a, b, Options{N: 300, SweepF32: true})
		rt.Shutdown()
		if i == 0 {
			ref = res.Prob
		} else if res.Prob != ref {
			t.Errorf("worker count changed f32 result: %v vs %v", res.Prob, ref)
		}
	}
}

// TestPMVNSweepF32EmptyAndOpenBoxes pins the degenerate-box semantics on the
// f32 path: fully open boxes give exactly 1, empty boxes exactly 0.
func TestPMVNSweepF32EmptyAndOpenBoxes(t *testing.T) {
	g := geo.RegularGrid(4, 4)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 2, Range: 0.3})
	f := denseFactor(t, sigma, 4)
	rt := taskrt.New(2)
	defer rt.Shutdown()
	if res := PMVN(rt, f, negInf(16), posInf(16), Options{N: 50, SweepF32: true}); res.Prob != 1 {
		t.Errorf("open box f32 prob = %v, want exactly 1", res.Prob)
	}
	a := make([]float64, 16)
	b := make([]float64, 16)
	for i := range a {
		a[i], b[i] = -1, 1
	}
	a[3], b[3] = 2, 1 // a > b in one dimension empties the box
	if res := PMVN(rt, f, a, b, Options{N: 50, SweepF32: true}); res.Prob != 0 {
		t.Errorf("empty box f32 prob = %v, want exactly 0", res.Prob)
	}
}

// TestSweepF32SingleTileBitIdentical pins that precision lives only in the
// propagation: a factor of one row tile has none, so SweepF32 must return the
// f64 bits — for MVN and MVT, fixed-N, replicated and budgeted.
func TestSweepF32SingleTileBitIdentical(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(17))
	f := denseFactor(t, randomSPD(n, rng), 32)
	if f.NT() != 1 {
		t.Fatalf("%d row tiles, want 1", f.NT())
	}
	a, b := randomLimits(n, rng)
	for _, opt := range []Options{
		{N: 200},
		{N: 200, Replicates: 3},
		{N: 400, MaxRelErr: 1e-9},
	} {
		f32 := opt
		f32.SweepF32 = true
		if got, want := PMVN(nil, f, a, b, f32), PMVN(nil, f, a, b, opt); got != want || want.Prob <= 0 {
			t.Errorf("%+v: MVN under SweepF32 %+v, f64 %+v", opt, got, want)
		}
		if got, want := PMVT(nil, f, a, b, 5, f32), PMVT(nil, f, a, b, 5, opt); got != want || want.Prob <= 0 {
			t.Errorf("%+v: MVT under SweepF32 %+v, f64 %+v", opt, got, want)
		}
	}
}
