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
	ErfcBatch(xs, dst)
	for i, x := range xs {
		if want := math.Erfc(x); !sameFloat(dst[i], want) {
			t.Fatalf("scalar ErfcBatch(%g) = %g, want %g", x, dst[i], want)
		}
	}
	as, bs := intervalInputs(11)
	for i := range as {
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.7, nil, genzDraws)
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.07, genzScales, genzDraws)
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

// The lanes every GenzRow row of the tests below is evaluated over:
// conditioning sums that put the shifted limits in every erfc region and on
// both sides of zero (with the non-finite ones), χ² scales and draws that
// reach both Φ⁻¹ tails. 13 lanes: three vector blocks and a ragged one.
var (
	genzAcc    = []float64{0, -0.3, 0.3, 2, -2, 9, -9, 30, -30, math.Inf(1), math.Inf(-1), math.NaN(), 1e-9}
	genzScales = []float64{1, 0.5, 1.7, 0.9, 1.1, 3, 0.2, 1, 1e-3, 1, 1.3, 0.8, 0}
	genzDraws  = []float64{0.5, 1e-17, 1 - 1e-16, 0.074, 0.926, 0.3, 0.7, 0.999, 1e-300, 0.5, 0.5, 0.5, 0.25}
)

// checkGenzRow runs GenzRow over one row and compares every lane with the
// scalar forms it fuses — the shift, PhiIntervalAndPhi, PhiInv: exactly on
// the scalar path, within the documented tolerances on the vector path.
func checkGenzRow(t *testing.T, lo, hi float64, acc []float64, d float64, s, w []float64) {
	t.Helper()
	n := len(acc)
	g := GenzLanes{A: make([]float64, n), B: make([]float64, n), Dif: make([]float64, n), U: make([]float64, n)}
	y := make([]float64, n)
	GenzRow(lo, hi, acc, d, s, w[:n], y, g)
	exact := !hasVecSpecials || n < 4
	for l := range acc {
		sl := 1.0
		if s != nil {
			sl = s[l]
		}
		a, b := lo, hi
		if !math.IsInf(lo, 0) {
			a = (lo*sl - acc[l]) / d
		}
		if !math.IsInf(hi, 0) {
			b = (hi*sl - acc[l]) / d
		}
		if ga, gb := g.Limits(lo, hi, l); !sameFloat(ga, a) || !sameFloat(gb, b) {
			t.Fatalf("row (%g,%g) lane %d: shifted limits (%g,%g), want (%g,%g)", lo, hi, l, ga, gb, a, b)
		}
		dif, da := PhiIntervalAndPhi(a, b)
		u := da + w[l]*dif
		difTol, uTol, yRel := intervalTol(a, dif), erfcTol(da)+3e-16+math.Abs(w[l])*intervalTol(a, dif), PhiInvVecMaxRel
		if exact {
			difTol, uTol, yRel = 0, 0, 0
		}
		if !closeTol(g.Dif[l], dif, difTol) {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g): dif = %g, scalar %g", lo, hi, l, a, b, g.Dif[l], dif)
		}
		// Structural invariants the sweep relies on, independent of path: an
		// empty interval is exactly 0 and a live dif is positive.
		if b <= a && g.Dif[l] != 0 || g.Dif[l] < 0 {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g): dif = %g", lo, hi, l, a, b, g.Dif[l])
		}
		if onVec := !exact && !math.IsInf(lo, 1) && !math.IsInf(hi, -1) && !(math.IsInf(lo, 0) && math.IsInf(hi, 0)); onVec {
			// On the vector path a typed row must return, bit for bit, what the
			// two-sided arithmetic returns over both shifted limits with the
			// infinite one evaluated too — what the sweep ran before rows were
			// typed (a live lane's da included, through u).
			x := []float64{a / Sqrt2, b / Sqrt2}
			if !(a >= 0) {
				x[0], x[1] = -x[0], -x[1]
			}
			erfcVec(x, x, 1, 0.5)
			vdif, vda := math.NaN(), math.NaN()
			switch {
			case b <= a:
				vdif, vda = 0, 0
			case a >= 0:
				vdif, vda = x[0]-x[1], 1-x[0]
			case a < 0:
				vdif, vda = x[1]-x[0], x[0]
			}
			if vu := vda + w[l]*vdif; !sameFloat(g.Dif[l], vdif) || vdif > 0 && !sameFloat(g.U[l], vu) {
				t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g w=%g): (dif, u) = (%g, %g), two-sided arithmetic (%g, %g)",
					lo, hi, l, a, b, w[l], g.Dif[l], g.U[l], vdif, vu)
			}
		}
		// u and y are only consumed when the lane survives (dif > 0).
		if !(dif > 0) {
			continue
		}
		if !closeTol(g.U[l], u, uTol) {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g w=%g): u = %g, scalar %g", lo, hi, l, a, b, w[l], g.U[l], u)
		}
		// y stands on central lanes; the tail lanes are the caller's.
		if want := PhiInv(g.U[l]); PhiInvCentral(g.U[l]) && !closeTol(y[l], want, yRel*math.Abs(want)) {
			t.Fatalf("row (%g,%g) lane %d: y = %g, PhiInv(%g) = %g", lo, hi, l, y[l], g.U[l], want)
		}
	}
}

// TestGenzRowMatchesScalar runs every interval of intervalInputs — the
// half-open, degenerate and NaN ones among them — as the scalar limits of a
// row, MVN and MVT.
func TestGenzRowMatchesScalar(t *testing.T) {
	as, bs := intervalInputs(7)
	for i := range as {
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.7, nil, genzDraws)
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.07, genzScales, genzDraws)
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
// to the scalar path, so they agree with the scalar reference exactly.
func TestBatchAliasing(t *testing.T) {
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

// FuzzPhiIntervalBatch pins dif against PhiInterval on arbitrary limit
// pairs, including a ≈ b, reversed, and non-finite limits, across ragged
// lengths.
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
	})
}

// FuzzGenzRow pins the row step against the scalar forms lane by lane
// (checkGenzRow), on the host's path and on the scalar one: any limits, NaN
// and ±Inf conditioning sums, tiny and huge pivots, with and without χ²
// scales, lane vectors of 1 to 67.
func FuzzGenzRow(f *testing.F) {
	inf := math.Inf(1)
	f.Add(-0.3, inf, 0.4, -1.2, 0.41, 1.0, 0.37, uint8(66), false)   // the excursion row
	f.Add(-inf, 0.8, -0.1, 2.5, 0.07, 0.6, 0.91, uint8(12), true)    // upper-only, MVT
	f.Add(-1.5, 2.0, math.NaN(), inf, 1.0, 1.3, 0.5, uint8(4), true) // two-sided, NaN and +Inf sums
	f.Add(1.0, inf, 0.0, -inf, 1e-300, 1.0, 1e-17, uint8(2), false)  // tiny pivot, scalar length
	f.Add(-2.0, -1.0, 3.0, -3.0, 1e300, 0.0, 1-1e-16, uint8(33), true)
	f.Add(inf, inf, 0.0, 1.0, 1.0, 1.0, 0.5, uint8(8), false) // wrong-side infinity: empty
	f.Add(-inf, inf, 0.0, 1.0, 1.0, 1.0, 0.5, uint8(8), false)
	f.Add(2.0, 1.0, 0.3, -0.3, 0.5, 1.0, 0.5, uint8(20), false)
	f.Fuzz(func(t *testing.T, lo, hi, acc0, acc1, d, s0, w0 float64, nn uint8, scaled bool) {
		n := 1 + int(nn%67)
		acc, w := make([]float64, n), make([]float64, n)
		var s []float64
		if scaled {
			s = make([]float64, n)
		}
		for l := range acc {
			// Two seeds and a ramp: neighbouring lanes land in different erfc
			// regions and on both sides of zero.
			switch l % 3 {
			case 0:
				acc[l] = acc0
			case 1:
				acc[l] = acc1
			default:
				acc[l] = acc0 + 0.37*float64(l) - acc1
			}
			w[l] = w0
			if l%4 != 0 {
				_, w[l] = math.Modf(math.Abs(w0) + 0.6180339887*float64(l))
			}
			if scaled {
				s[l] = s0 * (1 + 0.01*float64(l%5))
			}
		}
		checkGenzRow(t, lo, hi, acc, d, s, w)
		setVecSpecials(t, false)
		checkGenzRow(t, lo, hi, acc, d, s, w)
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
			g := GenzLanes{A: make([]float64, n), B: make([]float64, n), Dif: make([]float64, n), U: make([]float64, n)}
			for _, row := range []struct {
				name   string
				lo, hi float64
			}{{"lower", -0.3, math.Inf(1)}, {"upper", math.Inf(-1), 0.8}, {"twosided", -1.5, 2}} {
				b.Run(fmt.Sprintf("genzrow-%s/%s/n=%d", row.name, name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						GenzRow(row.lo, row.hi, x, 0.4, nil, pr, dst, g)
					}
				})
			}
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
