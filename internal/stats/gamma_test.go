package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 − e^{-x} exactly.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); !almostEq(got, want, 1e-13) {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.2, 1, 3, 8} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); !almostEq(got, want, 1e-12) {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPEdges(t *testing.T) {
	if GammaP(2, 0) != 0 {
		t.Error("P(a,0) should be 0")
	}
	if GammaP(2, math.Inf(1)) != 1 {
		t.Error("P(a,Inf) should be 1")
	}
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {1, -1}} {
		if !math.IsNaN(GammaP(bad[0], bad[1])) {
			t.Errorf("GammaP%v should be NaN", bad)
		}
	}
}

func TestGammaPMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.2 + 5*rng.Float64()
		x := 8 * rng.Float64()
		return GammaP(a, x) <= GammaP(a, x+0.1)+1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 1, 2.5, 10, 50} {
		for _, p := range []float64{1e-6, 0.01, 0.3, 0.5, 0.9, 0.999} {
			x := GammaPInv(a, p)
			if got := GammaP(a, x); !almostEq(got, p, 1e-8) {
				t.Errorf("GammaP(%v, GammaPInv(%v,%v)=%v) = %v", a, a, p, x, got)
			}
		}
	}
	if GammaPInv(2, 0) != 0 || !math.IsInf(GammaPInv(2, 1), 1) {
		t.Error("GammaPInv endpoints wrong")
	}
	if !math.IsNaN(GammaPInv(2, -0.1)) || !math.IsNaN(GammaPInv(-1, 0.5)) {
		t.Error("GammaPInv should reject invalid input")
	}
}

func TestChi2InvKnownQuantiles(t *testing.T) {
	cases := []struct{ p, k, want float64 }{
		{0.95, 1, 3.841458820694124},
		{0.95, 10, 18.307038053275146},
		{0.5, 2, 2 * math.Ln2}, // median of χ²₂ = 2 ln 2
		{0.99, 5, 15.08627246938899},
	}
	for _, c := range cases {
		if got := Chi2Inv(c.p, c.k); !almostEq(got, c.want, 1e-8) {
			t.Errorf("Chi2Inv(%v,%v) = %v, want %v", c.p, c.k, got, c.want)
		}
	}
}

func TestStudentTCDFExactCases(t *testing.T) {
	// ν=1 is Cauchy: F(t) = 1/2 + atan(t)/π.
	for _, tt := range []float64{-3, -1, 0, 0.5, 2, 10} {
		want := 0.5 + math.Atan(tt)/math.Pi
		if got := StudentTCDF(tt, 1); !almostEq(got, want, 1e-12) {
			t.Errorf("t-CDF ν=1 at %v: %v, want %v", tt, got, want)
		}
	}
	// ν=2: F(t) = 1/2 + t/(2√(2+t²)).
	for _, tt := range []float64{-2, -0.5, 0, 1, 4} {
		want := 0.5 + tt/(2*math.Sqrt(2+tt*tt))
		if got := StudentTCDF(tt, 2); !almostEq(got, want, 1e-12) {
			t.Errorf("t-CDF ν=2 at %v: %v, want %v", tt, got, want)
		}
	}
}

func TestStudentTCDFLimitsToNormal(t *testing.T) {
	for _, tt := range []float64{-2, -0.5, 0, 1, 2.5} {
		if got, want := StudentTCDF(tt, 1e7), Phi(tt); !almostEq(got, want, 1e-5) {
			t.Errorf("ν→∞ limit at %v: %v vs Φ %v", tt, got, want)
		}
	}
	if StudentTCDF(math.Inf(1), 3) != 1 || StudentTCDF(math.Inf(-1), 3) != 0 {
		t.Error("t-CDF infinite-argument values wrong")
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		tt := math.Mod(raw, 10)
		nu := 3.5
		return almostEq(StudentTCDF(tt, nu)+StudentTCDF(-tt, nu), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChi2Inv(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += Chi2Inv(0.0001+float64(i%9998)/10000, 7)
	}
	_ = s
}

// StudentTCDF returns P(T ≤ t) for the Student-t distribution with ν > 0
// degrees of freedom, via the regularized incomplete beta function
// evaluated through its continued fraction.
func StudentTCDF(t, nu float64) float64 {
	if math.IsNaN(t) || nu <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := nu / (nu + t*t)
	ib := 0.5 * incBeta(nu/2, 0.5, x)
	if t >= 0 {
		return 1 - ib
	}
	return ib
}

// incBeta is the regularized incomplete beta function I_x(a,b).
func incBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF is the Lentz continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}
