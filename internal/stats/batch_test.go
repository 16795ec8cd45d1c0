package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hardInputs are the deep-tail, endpoint and non-finite arguments the batch
// functions must handle consistently with their scalar counterparts.
var hardInputs = []float64{
	math.Inf(-1), -40, -37.6, -8.3, -8.2, -6, -1.5, -0.425001, -0.425,
	-1e-9, 0, 1e-9, 0.3, 0.425, 0.425001, 0.84374, 0.84375, 1.2, 1.25,
	2.857142, 2.857143, 6, 8.2, 8.3, 26.5, 26.6, 27.2, 28, 37.6, 40,
	math.Inf(1), math.NaN(),
}

// hardProbs covers PhiInv's regions: endpoints, subnormal-tail p, central
// band boundaries and out-of-range values.
var hardProbs = []float64{
	0, 5e-324, 1e-300, 1e-17, 1e-9, 0.074, 0.075, 0.0749999,
	0.3, 0.5, 0.7, 0.9249999, 0.925, 0.9250001, 1 - 1e-9, 1 - 1e-16, 1,
	-0.1, 1.1, math.NaN(),
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// tinyAbsTol is the absolute agreement floor for near-underflow erfc tails:
// the vector exp clamps at exp(−708), inflating results below
// ErfcVecTinyAbs by at most ~1.3e-309 (see batch.go).
const tinyAbsTol = 2e-309

// closeTol reports whether got agrees with want within an absolute
// tolerance, treating NaN/Inf by identity.
func closeTol(got, want, tol float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) {
		return got == want
	}
	return math.Abs(got-want) <= tol
}

// erfcTol is the documented agreement bound for a single erfc-derived value:
// relative for results above the tiny floor, absolute below it.
func erfcTol(want float64) float64 {
	t := ErfcVecMaxRel * math.Abs(want)
	if math.Abs(want) < ErfcVecTinyAbs {
		t = tinyAbsTol
	}
	return t
}

// intervalTol bounds the interval probability dif = Φ(b)−Φ(a): the two erfc
// streams carry relative error, so a nearly-cancelled difference is accurate
// relative to the bounding tail mass 2·min(Φ(a),Φ(−a)) + |dif|, not to dif
// itself.
func intervalTol(a, dif float64) float64 {
	m := 0.5 * math.Erfc(math.Abs(a)/Sqrt2)
	return ErfcVecMaxRel*(2*m+math.Abs(dif)) + tinyAbsTol
}

// setVecSpecials flips the vector-kernel dispatch for the duration of a
// (sub)test, restoring the host default afterwards.
func setVecSpecials(t *testing.T, on bool) {
	t.Helper()
	old := hasVecSpecials
	if on && !old {
		t.Skip("no vector kernels on this host")
	}
	hasVecSpecials = on
	t.Cleanup(func() { hasVecSpecials = old })
}

func phiInputs() []float64 {
	xs := append([]float64(nil), hardInputs...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		xs = append(xs, (rng.Float64()-0.5)*80)
	}
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	return xs
}

func intervalInputs(seed int64) (as, bs []float64) {
	for _, a := range hardInputs {
		for _, b := range hardInputs {
			as = append(as, a)
			bs = append(bs, b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		a := (rng.Float64() - 0.5) * 80
		as = append(as, a)
		bs = append(bs, a+rng.NormFloat64()*3)
	}
	// Nearly-degenerate intervals: a ≈ b stresses the cancellation bound.
	for i := 0; i < 500; i++ {
		a := rng.NormFloat64() * 4
		as = append(as, a)
		bs = append(bs, a+math.Abs(rng.NormFloat64())*1e-8)
	}
	return as, bs
}

func TestPhiBatchMatchesScalar(t *testing.T) {
	xs := phiInputs()
	dst := make([]float64, len(xs))
	PhiBatch(xs, dst)
	for i, x := range xs {
		want := Phi(x)
		if !closeTol(dst[i], want, erfcTol(want)) {
			t.Fatalf("PhiBatch(%g) = %g, scalar %g", x, dst[i], want)
		}
	}
}

func TestErfcBatchMatchesScalar(t *testing.T) {
	xs := phiInputs()
	dst := make([]float64, len(xs))
	ErfcBatch(xs, dst)
	for i, x := range xs {
		want := math.Erfc(x)
		if !closeTol(dst[i], want, erfcTol(want)) {
			t.Fatalf("ErfcBatch(%g) = %g, scalar %g", x, dst[i], want)
		}
	}
}

// TestBatchScalarPathIsExact pins the kill-switch fallback: with the vector
// kernels disabled every batch form is bit-identical to its scalar
// counterpart, which is what REPRO_NOASM=1 runs verify continuously.
func TestBatchScalarPathIsExact(t *testing.T) {
	setVecSpecials(t, false)
	xs := phiInputs()
	dst := make([]float64, len(xs))
	PhiBatch(xs, dst)
	for i, x := range xs {
		if want := Phi(x); !sameFloat(dst[i], want) {
			t.Fatalf("scalar PhiBatch(%g) = %g, want %g", x, dst[i], want)
		}
	}
	as, bs := intervalInputs(11)
	dif := make([]float64, len(as))
	da := make([]float64, len(as))
	PhiIntervalPhiBatch(as, bs, dif, da)
	for i := range as {
		wd, wa := PhiIntervalAndPhi(as[i], bs[i])
		if !sameFloat(dif[i], wd) || !sameFloat(da[i], wa) {
			t.Fatalf("scalar PhiIntervalPhiBatch(%g,%g) = (%g,%g), want (%g,%g)",
				as[i], bs[i], dif[i], da[i], wd, wa)
		}
	}
	ps := append([]float64(nil), hardProbs...)
	inv := make([]float64, len(ps))
	PhiInvBatch(ps, inv)
	for i, p := range ps {
		if want := PhiInv(p); !sameFloat(inv[i], want) {
			t.Fatalf("scalar PhiInvBatch(%g) = %g, want %g", p, inv[i], want)
		}
	}
}

func TestPhiIntervalBatchMatchesScalar(t *testing.T) {
	as, bs := intervalInputs(2)
	dst := make([]float64, len(as))
	PhiIntervalBatch(as, bs, dst)
	for i := range as {
		want := PhiInterval(as[i], bs[i])
		if !closeTol(dst[i], want, intervalTol(as[i], want)) {
			t.Fatalf("PhiIntervalBatch(%g,%g) = %g, scalar %g", as[i], bs[i], dst[i], want)
		}
	}
}

func TestPhiIntervalPhiBatchMatchesScalar(t *testing.T) {
	as, bs := intervalInputs(7)
	dif := make([]float64, len(as))
	da := make([]float64, len(as))
	PhiIntervalPhiBatch(as, bs, dif, da)
	for i := range as {
		wantDif, wantDa := PhiIntervalAndPhi(as[i], bs[i])
		if !closeTol(dif[i], wantDif, intervalTol(as[i], wantDif)) {
			t.Fatalf("PhiIntervalPhiBatch(%g,%g) dif = %g, scalar %g", as[i], bs[i], dif[i], wantDif)
		}
		// da is only consumed when the lane survives (dif > 0); there it
		// tracks the scalar pair within the single-value erfc tolerance plus
		// the one-ulp complement forms.
		if wantDif > 0 && !closeTol(da[i], wantDa, erfcTol(wantDa)+3e-16) {
			t.Fatalf("PhiIntervalPhiBatch(%g,%g) da = %g, scalar %g", as[i], bs[i], da[i], wantDa)
		}
		// Structural invariants the sweep relies on, independent of path:
		// dead intervals are exactly (0,0) and live dif is positive.
		if bs[i] <= as[i] && (dif[i] != 0 || da[i] != 0) {
			t.Fatalf("empty interval (%g,%g) gave (%g,%g)", as[i], bs[i], dif[i], da[i])
		}
		if !math.IsNaN(dif[i]) && dif[i] < 0 {
			t.Fatalf("negative dif %g for (%g,%g)", dif[i], as[i], bs[i])
		}
	}
}

func TestPhiInvBatchMatchesScalar(t *testing.T) {
	ps := append([]float64(nil), hardProbs...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		ps = append(ps, rng.Float64())
	}
	// Probabilities clustered hard against 0 and 1.
	for e := 1; e < 300; e += 7 {
		ps = append(ps, math.Pow(10, -float64(e)), 1-math.Pow(10, -float64(e)))
	}
	dst := make([]float64, len(ps))
	PhiInvBatch(ps, dst)
	for i, p := range ps {
		want := PhiInv(p)
		tol := PhiInvVecMaxRel * math.Abs(want)
		if !closeTol(dst[i], want, tol) {
			t.Fatalf("PhiInvBatch(%g) = %g, scalar %g", p, dst[i], want)
		}
	}
}

// TestBatchAliasing: dst may alias the input slice; aliased calls fall back
// to the scalar path, so they agree with the scalar reference exactly and
// with the vector result within tolerance.
func TestBatchAliasing(t *testing.T) {
	x := []float64{-2, -0.5, 0, 0.5, 2, -1, 3, 0.1, 1.7}
	scalar := make([]float64, len(x))
	phiBatchScalar(x, scalar)
	vec := make([]float64, len(x))
	PhiBatch(x, vec)
	aliased := append([]float64(nil), x...)
	PhiBatch(aliased, aliased)
	for i := range x {
		if !closeTol(aliased[i], scalar[i], erfcTol(scalar[i])) {
			t.Fatalf("aliased PhiBatch diverged at %d: %g vs %g", i, aliased[i], scalar[i])
		}
		if !closeTol(vec[i], scalar[i], erfcTol(scalar[i])) {
			t.Fatalf("PhiBatch diverged at %d: %g vs %g", i, vec[i], scalar[i])
		}
	}
	p := []float64{0.01, 0.3, 0.5, 0.7, 0.99}
	wantInv := make([]float64, len(p))
	phiInvBatchScalar(p, wantInv)
	aliasedP := append([]float64(nil), p...)
	PhiInvBatch(aliasedP, aliasedP)
	for i := range p {
		if !sameFloat(aliasedP[i], wantInv[i]) {
			t.Fatalf("aliased PhiInvBatch diverged at %d: %g vs %g", i, aliasedP[i], wantInv[i])
		}
	}
}

// TestBatchRaggedLengths exercises every tail length of the 4-lane kernels.
func TestBatchRaggedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 17; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		dst := make([]float64, n)
		ErfcBatch(x, dst)
		for i := range x {
			want := math.Erfc(x[i])
			if !closeTol(dst[i], want, erfcTol(want)) {
				t.Fatalf("n=%d: ErfcBatch(%g)[%d] = %g, scalar %g", n, x[i], i, dst[i], want)
			}
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		inv := make([]float64, n)
		PhiInvBatch(p, inv)
		for i := range p {
			want := PhiInv(p[i])
			if !closeTol(inv[i], want, PhiInvVecMaxRel*math.Abs(want)) {
				t.Fatalf("n=%d: PhiInvBatch(%g)[%d] = %g, scalar %g", n, p[i], i, inv[i], want)
			}
		}
	}
}

// FuzzErfcBatch pins vector-vs-scalar erfc agreement on arbitrary inputs,
// including NaN/±Inf bit patterns and ragged slice lengths.
func FuzzErfcBatch(f *testing.F) {
	f.Add(0.0, 1.3, -40.0, 27.0, uint8(7))
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 0.84375, uint8(3))
	f.Add(1.25, 2.857143, -1.25, 26.6, uint8(5))
	f.Add(1e-300, -1e-300, 5e-324, -0.0, uint8(1))
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3 float64, nn uint8) {
		seed := [4]float64{x0, x1, x2, x3}
		n := 1 + int(nn%9)
		x := make([]float64, n)
		for i := range x {
			x[i] = seed[i%4]
		}
		dst := make([]float64, n)
		ErfcBatch(x, dst)
		for i := range x {
			want := math.Erfc(x[i])
			if !closeTol(dst[i], want, erfcTol(want)) {
				t.Fatalf("ErfcBatch(%g)[%d] = %g, scalar %g (len %d)", x[i], i, dst[i], want, n)
			}
		}
	})
}

// FuzzPhiIntervalBatch pins the interval forms — dif against PhiInterval and
// the fused pair against PhiIntervalAndPhi — on arbitrary limit pairs,
// including a ≈ b, reversed, and non-finite limits, across ragged lengths.
func FuzzPhiIntervalBatch(f *testing.F) {
	f.Add(-1.0, 1.0, 0.5, 0.5000001, uint8(6))
	f.Add(math.Inf(-1), math.Inf(1), -40.0, 40.0, uint8(4))
	f.Add(2.0, math.NaN(), math.Inf(1), -8.3, uint8(2))
	f.Add(-37.6, -37.5, 8.2, 8.3, uint8(9))
	f.Fuzz(func(t *testing.T, a0, b0, a1, b1 float64, nn uint8) {
		seedA := [2]float64{a0, a1}
		seedB := [2]float64{b0, b1}
		n := 1 + int(nn%9)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = seedA[i%2], seedB[i%2]
		}
		dst := make([]float64, n)
		PhiIntervalBatch(a, b, dst)
		for i := range a {
			want := PhiInterval(a[i], b[i])
			if !closeTol(dst[i], want, intervalTol(a[i], want)) {
				t.Fatalf("PhiIntervalBatch(%g,%g) = %g, scalar %g", a[i], b[i], dst[i], want)
			}
		}
		dif := make([]float64, n)
		da := make([]float64, n)
		PhiIntervalPhiBatch(a, b, dif, da)
		for i := range a {
			wd, wa := PhiIntervalAndPhi(a[i], b[i])
			if !closeTol(dif[i], wd, intervalTol(a[i], wd)) {
				t.Fatalf("PhiIntervalPhiBatch(%g,%g) dif = %g, scalar %g", a[i], b[i], dif[i], wd)
			}
			if wd > 0 && !closeTol(da[i], wa, erfcTol(wa)+3e-16) {
				t.Fatalf("PhiIntervalPhiBatch(%g,%g) da = %g, scalar %g", a[i], b[i], da[i], wa)
			}
		}
	})
}

// BenchmarkSpecials compares the scalar loops against the vector kernels at
// the sweep's lane-block sizes.
func BenchmarkSpecials(b *testing.B) {
	for _, n := range []int{64, 1000} {
		x := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		pr := make([]float64, n)
		dst := make([]float64, n)
		da := make([]float64, n)
		rng := rand.New(rand.NewSource(4))
		for i := range x {
			x[i] = rng.NormFloat64() * 2
			lo[i] = rng.NormFloat64() - 1
			hi[i] = lo[i] + 2 + rng.Float64()
			// The sweep hands PhiInvBatch uniforms scaled into (0,1), so
			// that is the representative input (mostly central-branch).
			pr[i] = rng.Float64()
		}
		for _, vec := range []bool{false, true} {
			if vec && !hasVecSpecials {
				continue
			}
			old := hasVecSpecials
			hasVecSpecials = vec
			name := "scalar"
			if vec {
				name = "vec"
			}
			b.Run(fmt.Sprintf("erfc/%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ErfcBatch(x, dst)
				}
			})
			b.Run(fmt.Sprintf("phi/%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PhiBatch(x, dst)
				}
			})
			b.Run(fmt.Sprintf("phiintervalphi/%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PhiIntervalPhiBatch(lo, hi, dst, da)
				}
			})
			b.Run(fmt.Sprintf("phiinv/%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PhiInvBatch(pr, dst)
				}
			})
			hasVecSpecials = old
		}
	}
}

func BenchmarkPhiInvBatch(b *testing.B) {
	const n = 64
	p := make([]float64, n)
	dst := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range p {
		p[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PhiInvBatch(p, dst)
	}
}
