package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316300933},
		{6, 0.9999999990134124},
	}
	for _, c := range cases {
		if got := Phi(c.x); !almostEq(got, c.want, 1e-14) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPhiTails(t *testing.T) {
	// Deep left tail must not underflow to zero prematurely and must match
	// the erfc-based asymptotics.
	if p := Phi(-10); !almostEq(p, 7.619853024160526e-24, 1e-12) {
		t.Errorf("Phi(-10) = %v", p)
	}
	if p := Phi(-37); p <= 0 {
		t.Errorf("Phi(-37) underflowed to %v", p)
	}
	if p := Phi(10); p != 1 && !almostEq(p, 1, 1e-15) {
		t.Errorf("Phi(10) = %v", p)
	}
}

func TestPhiDensityIntegratesToPhi(t *testing.T) {
	// Simpson integration of the density should reproduce Phi differences.
	integ := func(a, b float64, n int) float64 {
		h := (b - a) / float64(n)
		s := PhiDensity(a) + PhiDensity(b)
		for i := 1; i < n; i++ {
			x := a + float64(i)*h
			if i%2 == 1 {
				s += 4 * PhiDensity(x)
			} else {
				s += 2 * PhiDensity(x)
			}
		}
		return s * h / 3
	}
	for _, pair := range [][2]float64{{-1, 1}, {0, 2.5}, {-3, -0.5}} {
		want := Phi(pair[1]) - Phi(pair[0])
		got := integ(pair[0], pair[1], 2000)
		if !almostEq(got, want, 1e-10) {
			t.Errorf("∫φ over %v = %v, want %v", pair, got, want)
		}
	}
}

func TestPhiIntervalMatchesDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := rng.NormFloat64() * 2
		b := a + math.Abs(rng.NormFloat64())
		want := Phi(b) - Phi(a)
		got := PhiInterval(a, b)
		if !almostEq(got, want, 1e-13) {
			t.Fatalf("PhiInterval(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestPhiIntervalTailStability(t *testing.T) {
	// In the far right tail a naive Φ(b)-Φ(a) cancels to zero; the interval
	// form must retain relative accuracy. Reference via erfc directly.
	a, b := 10.0, 11.0
	want := 0.5 * (math.Erfc(a/Sqrt2) - math.Erfc(b/Sqrt2))
	if got := PhiInterval(a, b); !almostEq(got, want, 1e-14) || got <= 0 {
		t.Errorf("PhiInterval(10,11) = %v, want %v", got, want)
	}
	if got := PhiInterval(-11, -10); !almostEq(got, want, 1e-14) {
		t.Errorf("PhiInterval(-11,-10) = %v, want %v (symmetry)", got, want)
	}
	if got := PhiInterval(3, 2); got != 0 {
		t.Errorf("PhiInterval(3,2) = %v, want 0 for reversed limits", got)
	}
}

func TestPhiInvKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{0.0013498980316300933, -3},
		{1e-10, -6.361340902404056},
		{0.9, 1.2815515655446004},
	}
	for _, c := range cases {
		if got := PhiInv(c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("PhiInv(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPhiInvEdgeCases(t *testing.T) {
	if !math.IsInf(PhiInv(0), -1) {
		t.Error("PhiInv(0) should be -Inf")
	}
	if !math.IsInf(PhiInv(1), +1) {
		t.Error("PhiInv(1) should be +Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(PhiInv(p)) {
			t.Errorf("PhiInv(%v) should be NaN", p)
		}
	}
}

func TestPhiInvRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1)) // p in [0,1)
		if p == 0 {
			p = 0.5
		}
		x := PhiInv(p)
		return almostEq(Phi(x), p, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPhiInvMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for p := 1e-8; p < 1; p += 1e-4 {
		x := PhiInv(p)
		if x < prev {
			t.Fatalf("PhiInv not monotone at p=%v: %v < %v", p, x, prev)
		}
		prev = x
	}
}

// besselKIntegral is an independent oracle: K_ν(x) = ∫₀^∞ e^{-x·cosh t}·cosh(νt) dt,
// evaluated with composite Simpson on a truncated domain.
func besselKIntegral(nu, x float64) float64 {
	f := func(tt float64) float64 {
		return math.Exp(-x*math.Cosh(tt)) * math.Cosh(nu*tt)
	}
	// Integrand decays like exp(-x·e^t/2); pick T so x·cosh(T) ≥ 750.
	T := math.Acosh(math.Max(750/x, 2))
	const n = 200000
	h := T / n
	s := f(0) + f(T)
	for i := 1; i < n; i++ {
		if i%2 == 1 {
			s += 4 * f(float64(i)*h)
		} else {
			s += 2 * f(float64(i)*h)
		}
	}
	return s * h / 3
}

func TestBesselKKnownValues(t *testing.T) {
	cases := []struct{ nu, x, want float64 }{
		{0, 1, 0.42102443824070834},
		{1, 1, 0.6019072301972346},
		{0, 2, 0.11389387274953344},
		{1, 2, 0.13986588181652243},
		{2, 1, 1.6248388986351774},
	}
	for _, c := range cases {
		if got := BesselK(c.nu, c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("BesselK(%v,%v) = %v, want %v", c.nu, c.x, got, c.want)
		}
	}
}

func TestBesselKHalfIntegerClosedForms(t *testing.T) {
	for _, x := range []float64{0.05, 0.3, 1, 2.5, 7, 30} {
		k12 := math.Sqrt(math.Pi/(2*x)) * math.Exp(-x)
		k32 := k12 * (1 + 1/x)
		k52 := k12 * (1 + 3/x + 3/(x*x))
		if got := BesselK(0.5, x); !almostEq(got, k12, 1e-13) {
			t.Errorf("K_1/2(%v) = %v, want %v", x, got, k12)
		}
		if got := BesselK(1.5, x); !almostEq(got, k32, 1e-13) {
			t.Errorf("K_3/2(%v) = %v, want %v", x, got, k32)
		}
		if got := BesselK(2.5, x); !almostEq(got, k52, 1e-13) {
			t.Errorf("K_5/2(%v) = %v, want %v", x, got, k52)
		}
	}
}

func TestBesselKAgainstIntegral(t *testing.T) {
	if testing.Short() {
		t.Skip("quadrature oracle is slow")
	}
	for _, c := range []struct{ nu, x float64 }{
		{0.3, 0.5}, {0.3, 3}, {1.43391, 0.8}, {1.43391, 4},
		{2.2, 1.7}, {3.7, 2.1}, {0.01, 1.2}, {5.5, 9},
	} {
		want := besselKIntegral(c.nu, c.x)
		got := BesselK(c.nu, c.x)
		if !almostEq(got, want, 1e-9) {
			t.Errorf("BesselK(%v,%v) = %v, integral oracle %v", c.nu, c.x, got, want)
		}
	}
}

func TestBesselKRecurrence(t *testing.T) {
	// K_{ν+1}(x) = K_{ν-1}(x) + (2ν/x)·K_ν(x) must hold across the
	// Temme/CF2 boundary and for fractional orders.
	for _, x := range []float64{0.3, 1.5, 1.9999, 2.0001, 6, 20} {
		for _, nu := range []float64{0.7, 1.2, 2.3, 3.9} {
			lhs := BesselK(nu+1, x)
			rhs := BesselK(nu-1, x) + (2*nu/x)*BesselK(nu, x)
			if !almostEq(lhs, rhs, 1e-10) {
				t.Errorf("recurrence fails at ν=%v x=%v: %v vs %v", nu, x, lhs, rhs)
			}
		}
	}
}

func TestBesselKBoundaryContinuity(t *testing.T) {
	// The x=2 algorithm switch must be seamless.
	for _, nu := range []float64{0, 0.25, 1.43391, 3.2} {
		lo := BesselK(nu, 2-1e-9)
		hi := BesselK(nu, 2+1e-9)
		if !almostEq(lo, hi, 1e-7) {
			t.Errorf("discontinuity at x=2 for ν=%v: %v vs %v", nu, lo, hi)
		}
	}
	// The half-integer fast path must agree with the general path nearby.
	g := BesselK(1.5000001, 1.3)
	h := BesselK(1.5, 1.3)
	if !almostEq(g, h, 1e-5) {
		t.Errorf("half-integer path inconsistent: %v vs %v", g, h)
	}
}

func TestBesselKEdgeCases(t *testing.T) {
	if !math.IsInf(BesselK(0.5, 0), 1) {
		t.Error("BesselK(ν,0) should be +Inf")
	}
	if got, want := BesselK(-1, 1), BesselK(1, 1); got != want {
		t.Errorf("BesselK(-1,1) = %v, want %v (even symmetry)", got, want)
	}
	if !math.IsNaN(BesselK(1, -1)) {
		t.Error("BesselK(1,-1) should be NaN")
	}
	if v := BesselK(0.5, 800); v != 0 && !almostEq(v, 0, 1e-300) {
		// deep underflow is fine; must not be NaN
		if math.IsNaN(v) {
			t.Error("BesselK(0.5,800) is NaN")
		}
	}
}

func TestBesselKMonotoneInX(t *testing.T) {
	f := func(raw float64) bool {
		x := 0.1 + math.Abs(math.Mod(raw, 10))
		nu := 1.43391
		return BesselK(nu, x) > BesselK(nu, x+0.1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPhi(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += Phi(float64(i%7) - 3)
	}
	_ = s
}

func BenchmarkPhiInv(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += PhiInv(0.1 + 0.0001*float64(i%8000))
	}
	_ = s
}

func BenchmarkBesselK(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += BesselK(1.43391, 0.5+float64(i%100)*0.05)
	}
	_ = s
}

// TestPhiInvSubnormal: a subnormal p gets its true quantile — Φ(PhiInv(p))
// returns p to 1e-12 relative through the tail-stable Φ — and PhiInv is
// monotone and continuous across the smallest normal number, where the log's
// argument changes from scaled to plain.
func TestPhiInvSubnormal(t *testing.T) {
	for _, p := range []float64{5e-324, 1e-320, 1e-310} {
		x := PhiInv(p)
		if got := Phi(x); math.Abs(got-p) > 1e-12*p {
			t.Errorf("Phi(PhiInv(%g)) = %g (x = %.17g)", p, got, x)
		}
	}
	if x := PhiInv(5e-324); math.Abs(x+38.47) > 0.01 {
		t.Errorf("PhiInv(5e-324) = %.17g, want ≈ −38.47", x)
	}
	const tiny = 2.2250738585072014e-308 // smallest normal
	// Neighbouring floats (non-decreasing: the quantile moves by less than
	// its ulp) and a geometric grid (increasing) on both sides of tiny.
	var ps []float64
	p := tiny
	for i := 0; i < 16; i++ {
		p = math.Nextafter(p, 0)
	}
	for i := 0; i < 33; i++ {
		ps = append(ps, p)
		p = math.Nextafter(p, 1)
	}
	for i, prev := 0, math.Inf(-1); i < len(ps); i++ {
		x := PhiInv(ps[i])
		if x < prev {
			t.Fatalf("PhiInv decreases at p = %g (%#x): %.17g after %.17g", ps[i], math.Float64bits(ps[i]), x, prev)
		}
		prev = x
	}
	if lo, hi := PhiInv(math.Nextafter(tiny, 0)), PhiInv(tiny); hi-lo > 1e-13 {
		t.Errorf("PhiInv jumps at the smallest normal: %.17g → %.17g", lo, hi)
	}
	prev := math.Inf(-1)
	for p := tiny / 16; p < 16*tiny; p *= 1.01 {
		x := PhiInv(p)
		if !(x > prev) {
			t.Fatalf("PhiInv(%g) = %.17g, not above %.17g", p, x, prev)
		}
		prev = x
	}
}

// PhiDensity returns the standard normal density φ(x).
func PhiDensity(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}
