package mvn

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
)

// waveTestFactor builds a dense Cholesky factor for an n = side² Matérn-like
// exponential field, plus the dense L the sequential reference consumes.
func waveTestFactor(t *testing.T, rt *taskrt.Runtime, side, ts int) (*Factor, *linalg.Matrix) {
	t.Helper()
	g := geo.RegularGrid(side, side)
	sigma := cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.2})
	fac := denseFactorOn(t, rt, sigma, ts)
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	return fac, l
}

// waveTestLimits builds three limit regimes at dimension n: excursion (a
// common lower limit), prefix (the first 16 coordinates constrained, the
// rest free) and wide (a ±6 box, every lane alive).
func waveTestLimits(n int) map[string][2][]float64 {
	mk := func(f func(i int) (float64, float64)) [2][]float64 {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = f(i)
		}
		return [2][]float64{a, b}
	}
	return map[string][2][]float64{
		"excursion": mk(func(i int) (float64, float64) { return -1, math.Inf(1) }),
		"prefix": mk(func(i int) (float64, float64) {
			if i < 16 {
				return -0.5, math.Inf(1)
			}
			return math.Inf(-1), math.Inf(1)
		}),
		"wide": mk(func(i int) (float64, float64) { return -6, 6 }),
	}
}

// TestWaveErrorEstimatorValidity: across the three waveTestLimits regimes, the
// early-stopped estimate must agree with the (much larger N) sequential
// reference to within a small multiple of its own reported error bar — the
// reported relative error is a usable bound, not just a diagnostic.
func TestWaveErrorEstimatorValidity(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	fac, dense := waveTestFactor(t, rt, 8, 16) // n = 64
	n := fac.N()
	for regime, lim := range waveTestLimits(n) {
		res := PMVN(rt, fac, lim[0], lim[1], Options{
			N: 4000, Replicates: 4, MaxRelErr: 1e-3,
		})
		ref := SOVSequential(lim[0], lim[1], dense, qmc.NewRichtmyer(n), 200000)
		if res.Prob < 0 || res.Prob > 1 {
			t.Errorf("%s: probability %g out of [0,1]", regime, res.Prob)
		}
		if res.Samples <= 0 || res.Samples > 4*4000 {
			t.Errorf("%s: implausible sample count %d", regime, res.Samples)
		}
		// The bound check: |est − ref| within 5 reported sigmas plus a tiny
		// absolute floor for the reference's own QMC error.
		tol := 5*res.StdErr + 1e-4*ref + 1e-9
		if diff := math.Abs(res.Prob - ref); diff > tol {
			t.Errorf("%s: |est-ref| = %.3g exceeds 5σ bound %.3g (est %.8g ref %.8g, relerr %.2g, samples %d)",
				regime, diff, tol, res.Prob, ref, res.RelErr, res.Samples)
		}
		if res.Converged && res.RelErr > 1e-3 {
			t.Errorf("%s: converged with RelErr %.3g > target", regime, res.RelErr)
		}
		t.Logf("%s: prob %.6g (ref %.6g) relerr %.2g samples %d converged %v",
			regime, res.Prob, ref, res.RelErr, res.Samples, res.Converged)
	}
}

// TestWaveDeterminismAcrossWorkers: the wave boundary, not goroutine
// scheduling, decides which samples are included — at fixed seeds the whole
// Result (estimate, error bar, stopping point) must be bit-identical between
// a single-worker inline run and an 8-worker task fan-out.
func TestWaveDeterminismAcrossWorkers(t *testing.T) {
	rt1 := taskrt.New(1)
	defer rt1.Shutdown()
	rt8 := taskrt.New(8)
	defer rt8.Shutdown()
	fac, _ := waveTestFactor(t, rt1, 8, 16)
	n := fac.N()
	for regime, lim := range waveTestLimits(n) {
		for _, target := range []float64{1e-2, 1e-3, 1e-4} {
			opt := Options{N: 4000, Replicates: 4, MaxRelErr: target}
			r1 := PMVN(rt1, fac, lim[0], lim[1], opt)
			r8 := PMVN(rt8, fac, lim[0], lim[1], opt)
			if r1 != r8 {
				t.Errorf("%s target %g: workers=1 %+v != workers=8 %+v", regime, target, r1, r8)
			}
			ri := PMVN(nil, fac, lim[0], lim[1], opt)
			if r1 != ri {
				t.Errorf("%s target %g: inline (nil runtime) diverges: %+v != %+v", regime, target, r1, ri)
			}
		}
	}
}

// TestWaveDegenerateBoxes: exact-0 and exact-1 boxes have zero replicate
// spread, so they must stop at the first wave boundary with the exact
// answer, RelErr 0 and Converged set.
func TestWaveDegenerateBoxes(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	fac, _ := waveTestFactor(t, rt, 8, 16)
	n := fac.N()
	p := Options{MaxRelErr: 1e-3}.withDefaults().plan(fac.TS())
	wantSamples := p.reps * p.wave

	free := make([]float64, n)
	never := make([]float64, n)
	lo := make([]float64, n)
	for i := range free {
		free[i] = math.Inf(1)
		never[i] = -40 // Φ interval mass below -40σ underflows to exactly 0
		lo[i] = math.Inf(-1)
	}
	one := PMVN(rt, fac, lo, free, Options{MaxRelErr: 1e-3})
	if one.Prob != 1 || one.StdErr != 0 || one.RelErr != 0 || !one.Converged {
		t.Errorf("all-free box: want exact 1 converged, got %+v", one)
	}
	if one.Samples != wantSamples {
		t.Errorf("all-free box: want stop after wave 1 (%d samples), got %d", wantSamples, one.Samples)
	}
	zero := PMVN(rt, fac, lo, never, Options{MaxRelErr: 1e-3})
	if zero.Prob != 0 || zero.StdErr != 0 || zero.RelErr != 0 || !zero.Converged {
		t.Errorf("underflowing box: want exact 0 converged, got %+v", zero)
	}
	if zero.Samples != wantSamples {
		t.Errorf("underflowing box: want stop after wave 1 (%d samples), got %d", wantSamples, zero.Samples)
	}
}

// TestWaveCancellation: a canceled context stops the integration at the next
// wave boundary and returns the partial estimate with its error bar and the
// Canceled flag — completed waves are not discarded.
func TestWaveCancellation(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	fac, _ := waveTestFactor(t, rt, 8, 16)
	lim := waveTestLimits(fac.N())["excursion"]

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: exactly one wave must still run
	res := PMVN(rt, fac, lim[0], lim[1], Options{N: 4000, Ctx: ctx})
	if !res.Canceled || res.Converged {
		t.Fatalf("want Canceled partial result, got %+v", res)
	}
	p := Options{Ctx: ctx}.withDefaults().plan(fac.TS())
	if res.Samples != p.reps*p.wave {
		t.Errorf("canceled at first boundary: want %d samples, got %d", p.reps*p.wave, res.Samples)
	}
	if res.Prob <= 0 || res.Prob >= 1 || res.StdErr <= 0 {
		t.Errorf("partial estimate unusable: %+v", res)
	}

	// An un-canceled context is still a budget: N is the total, spent in
	// full, and the result carries an error bar.
	full := PMVN(rt, fac, lim[0], lim[1], Options{N: 4000, Ctx: context.Background()})
	if full.Canceled || full.Converged || full.StdErr <= 0 {
		t.Errorf("unconstrained wave run: %+v", full)
	}
	if full.Samples < 4000 {
		t.Errorf("unconstrained wave run spent %d of 4000 budget", full.Samples)
	}
}

// TestWaveDeadline: an already-expired deadline still yields one wave's
// estimate (budget-capped, not converged); a far future deadline runs the
// whole budget, and so does an unreachable target — on as many replicates as
// the caller asked for.
func TestWaveDeadline(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	fac, _ := waveTestFactor(t, rt, 8, 16)
	lim := waveTestLimits(fac.N())["excursion"]

	capped := PMVN(rt, fac, lim[0], lim[1], Options{N: 4000, Deadline: time.Now().Add(-time.Second)})
	p := Options{Deadline: time.Unix(1, 0)}.withDefaults().plan(fac.TS())
	if capped.Converged || capped.Canceled || capped.Samples != p.reps*p.wave {
		t.Errorf("expired deadline: want one budget-capped wave of %d samples, got %+v", p.reps*p.wave, capped)
	}
	uncapped := PMVN(rt, fac, lim[0], lim[1], Options{N: 4000, Deadline: time.Now().Add(time.Hour)})
	if uncapped.Samples < 4000 {
		t.Errorf("future deadline stopped early: %+v", uncapped)
	}

	// A budget keeps the replicate count it was given (it used to be capped at
	// 16 in silence): every wave is one lane block on each of the 20.
	many := PMVN(rt, fac, lim[0], lim[1], Options{N: 4000, Replicates: 20, MaxRelErr: 1e-9})
	if block := 20 * fac.TS(); many.Samples < 4000 || many.Samples%block != 0 {
		t.Errorf("20 replicates under a budget: %d samples, want a multiple of %d", many.Samples, block)
	}
}

// TestWaveMVT: a budgeted Student-t query (extra leading χ² coordinate) agrees
// with the sequential MVT reference within its reported error bar.
func TestWaveMVT(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	fac, dense := waveTestFactor(t, rt, 6, 12) // n = 36
	n := fac.N()
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i], b[i] = -1.5, 1
	}
	const nuDF = 5
	res := PMVT(rt, fac, a, b, nuDF, Options{N: 4000, Replicates: 4, MaxRelErr: 1e-3})
	ref := SOVSequentialT(a, b, dense, nuDF, qmc.NewRichtmyer(n+1), 200000)
	tol := 5*res.StdErr + 1e-3*ref
	if diff := math.Abs(res.Prob - ref); diff > tol {
		t.Errorf("MVT wave |est-ref| = %.3g exceeds %.3g (est %.8g ref %.8g samples %d)",
			diff, tol, res.Prob, ref, res.Samples)
	}
}
