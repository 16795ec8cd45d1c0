package cov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestMaternHalfIntegerMatchesExponential(t *testing.T) {
	// Matérn with ν=1/2 reduces to the exponential kernel.
	m := NewMatern(2.5, 0.3, 0.5)
	e := &Exponential{Sigma2: 2.5, Range: 0.3}
	for _, h := range []float64{0, 0.01, 0.1, 0.5, 1, 3} {
		if got, want := m.Cov(h), e.Cov(h); math.Abs(got-want) > 1e-12*want && math.Abs(got-want) > 1e-15 {
			t.Errorf("ν=1/2 Matérn(%v) = %v, exponential = %v", h, got, want)
		}
	}
}

func TestMaternNu15ClosedForm(t *testing.T) {
	// ν=3/2: C(h) = σ²(1 + h/a)·exp(−h/a).
	m := NewMatern(1, 0.2, 1.5)
	for _, h := range []float64{0.05, 0.2, 0.7} {
		tt := h / 0.2
		want := (1 + tt) * math.Exp(-tt)
		if got := m.Cov(h); math.Abs(got-want) > 1e-12 {
			t.Errorf("ν=3/2 Matérn(%v) = %v, want %v", h, got, want)
		}
	}
}

func TestMaternNu25ClosedForm(t *testing.T) {
	// ν=5/2: C(h) = σ²(1 + t + t²/3)·exp(−t), t = h/a.
	m := NewMatern(1, 0.5, 2.5)
	for _, h := range []float64{0.1, 0.4, 1.2} {
		tt := h / 0.5
		want := (1 + tt + tt*tt/3) * math.Exp(-tt)
		if got := m.Cov(h); math.Abs(got-want) > 1e-12 {
			t.Errorf("ν=5/2 Matérn(%v) = %v, want %v", h, got, want)
		}
	}
}

func TestMaternGeneralProperties(t *testing.T) {
	// The wind-dataset smoothness ν=1.43391 exercises the general K_ν path.
	m := NewMatern(1, 0.005069, 1.43391)
	if got := m.Cov(0); got != 1 {
		t.Errorf("C(0) = %v, want 1", got)
	}
	prev := m.Cov(1e-6)
	if prev > 1 {
		t.Errorf("C(h) exceeded variance: %v", prev)
	}
	for _, h := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1} {
		c := m.Cov(h)
		if c > prev+1e-12 {
			t.Errorf("Matérn not decreasing at h=%v: %v > %v", h, c, prev)
		}
		if c < 0 {
			t.Errorf("negative covariance at h=%v: %v", h, c)
		}
		prev = c
	}
	// Continuity at h→0 of the general-ν path.
	if c := m.Cov(1e-12); math.Abs(c-1) > 1e-6 {
		t.Errorf("C(h→0) = %v, want →1", c)
	}
}

func TestMaternPanicsOnBadParams(t *testing.T) {
	for _, p := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatern%v should panic", p)
				}
			}()
			NewMatern(p[0], p[1], p[2])
		}()
	}
}

func TestPoweredExponential(t *testing.T) {
	p := &PoweredExponential{Sigma2: 2, Range: 0.5, Power: 1}
	e := &Exponential{Sigma2: 2, Range: 0.5}
	for _, h := range []float64{0, 0.2, 1} {
		if math.Abs(p.Cov(h)-e.Cov(h)) > 1e-14 {
			t.Errorf("power=1 should equal exponential at h=%v", h)
		}
	}
	g := &PoweredExponential{Sigma2: 1, Range: 0.5, Power: 2}
	if got, want := g.Cov(0.5), math.Exp(-1); math.Abs(got-want) > 1e-14 {
		t.Errorf("gaussian kernel at range: %v want %v", got, want)
	}
}

func TestNugget(t *testing.T) {
	n := &Nugget{Kernel: &Exponential{Sigma2: 1, Range: 0.1}, Tau2: 0.25}
	if got := n.Cov(0); math.Abs(got-1.25) > 1e-14 {
		t.Errorf("nugget C(0) = %v, want 1.25", got)
	}
	if got := n.Cov(0.1); math.Abs(got-math.Exp(-1)) > 1e-14 {
		t.Errorf("nugget C(h>0) = %v, want %v", got, math.Exp(-1))
	}
	if got := n.Variance(); got != 1.25 {
		t.Errorf("Variance = %v", got)
	}
}

func TestMatrixSymmetricUnitDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := uniformRandom(30, rng)
	k := &Exponential{Sigma2: 1.5, Range: 0.1}
	s := Matrix(g, k)
	for i := 0; i < 30; i++ {
		if s.At(i, i) != 1.5 {
			t.Fatalf("diagonal %v", s.At(i, i))
		}
		for j := 0; j < 30; j++ {
			if s.At(i, j) != s.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
			want := k.Cov(g.Dist(i, j))
			if math.Abs(s.At(i, j)-want) > 1e-15 {
				t.Fatalf("value mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixIsPositiveDefinite(t *testing.T) {
	// Exponential covariance on distinct points is strictly PD; Cholesky
	// must succeed across correlation strengths including the paper's three.
	rng := rand.New(rand.NewSource(2))
	g := jitteredGrid(7, 7, 0.3, rng)
	for _, rng2 := range []float64{0.033, 0.1, 0.234} {
		s := Matrix(g, &Exponential{Sigma2: 1, Range: rng2})
		if _, err := linalg.Cholesky(s); err != nil {
			t.Errorf("range %v: %v", rng2, err)
		}
	}
}

func TestBlockMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := uniformRandom(20, rng)
	k := NewMatern(1, 0.1, 1.5)
	full := Matrix(g, k)
	blk := linalg.NewMatrix(5, 7)
	Block(blk, g, k, 10, 3)
	for j := 0; j < 7; j++ {
		for i := 0; i < 5; i++ {
			if blk.At(i, j) != full.At(10+i, 3+j) {
				t.Fatalf("Block(%d,%d) = %v, want %v", i, j, blk.At(i, j), full.At(10+i, 3+j))
			}
		}
	}
}

func TestPosteriorShrinksVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := jitteredGrid(6, 6, 0.2, rng)
	sigma := Matrix(g, &Exponential{Sigma2: 1, Range: 0.2})
	mu := make([]float64, g.Len())
	obs := []int{0, 7, 14, 21, 28, 35}
	y := make([]float64, len(obs))
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	post, muPost, err := Posterior(sigma.Clone(), mu, obs, y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		if post.At(i, i) >= sigma.At(i, i)+1e-12 {
			t.Errorf("posterior variance at %d did not shrink: %v vs %v", i, post.At(i, i), sigma.At(i, i))
		}
		if post.At(i, i) <= 0 {
			t.Errorf("posterior variance at %d nonpositive", i)
		}
	}
	if len(muPost) != g.Len() {
		t.Fatalf("muPost length %d", len(muPost))
	}
	// Observed locations should move toward their observations.
	for k, i := range obs {
		if y[k] != 0 && math.Signbit(muPost[i]) != math.Signbit(y[k]) && math.Abs(muPost[i]) > 0.3*math.Abs(y[k]) {
			t.Errorf("posterior mean at observed %d has wrong sign: %v vs y=%v", i, muPost[i], y[k])
		}
	}
}

func TestPosteriorAgainstDirectFormula(t *testing.T) {
	// Compare against literally materializing A and computing eq. 7–8.
	rng := rand.New(rand.NewSource(6))
	g := uniformRandom(12, rng)
	sigma := Matrix(g, &Exponential{Sigma2: 1, Range: 0.3})
	mu := make([]float64, 12)
	for i := range mu {
		mu[i] = rng.NormFloat64() * 0.1
	}
	obs := []int{2, 5, 9}
	y := []float64{1, -0.5, 0.2}
	tau2 := 0.25

	a := linalg.NewMatrix(3, 12)
	for k, i := range obs {
		a.Set(k, i, 1)
	}
	prior := invSPD(t, sigma)
	ata := linalg.NewMatrix(12, 12)
	linalg.Gemm(true, false, 1/tau2, a, a, 0, ata)
	for j := 0; j < 12; j++ {
		for i := 0; i < 12; i++ {
			prior.Add(i, j, ata.At(i, j))
		}
	}
	wantPost := invSPD(t, prior)
	resid := make([]float64, 3)
	for k, i := range obs {
		resid[k] = (y[k] - mu[i]) / tau2
	}
	rhs := make([]float64, 12)
	linalg.Gemv(true, 1, a, resid, 0, rhs)
	wantMu := make([]float64, 12)
	copy(wantMu, mu)
	linalg.Gemv(false, 1, wantPost, rhs, 1, wantMu)

	post, muPost, err := Posterior(sigma, mu, obs, y, tau2)
	if err != nil {
		t.Fatal(err)
	}
	if d := post.MaxAbsDiff(wantPost); d > 1e-9 {
		t.Errorf("posterior covariance diff %v", d)
	}
	for i := range muPost {
		if math.Abs(muPost[i]-wantMu[i]) > 1e-9 {
			t.Errorf("posterior mean[%d] = %v, want %v", i, muPost[i], wantMu[i])
		}
	}
}

func TestPosteriorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := uniformRandom(5, rng)
	sigma := Matrix(g, &Exponential{Sigma2: 1, Range: 0.2})
	if _, _, err := Posterior(sigma, make([]float64, 4), nil, nil, 1); err == nil {
		t.Error("want error for mu length mismatch")
	}
	if _, _, err := Posterior(sigma, make([]float64, 5), []int{0}, nil, 1); err == nil {
		t.Error("want error for obs/y mismatch")
	}
	if _, _, err := Posterior(sigma, make([]float64, 5), []int{9}, []float64{1}, 1); err == nil {
		t.Error("want error for out-of-range index")
	}
	for _, tau2 := range []float64{0, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, err := Posterior(sigma, make([]float64, 5), []int{0}, []float64{1}, tau2); err == nil {
			t.Errorf("want error for noise variance %v", tau2)
		}
	}
	// Σ_OO + τ²I not positive definite: a typed error, not a posterior.
	bad := sigma.Clone()
	bad.Set(2, 2, -3)
	if _, _, err := Posterior(bad, make([]float64, 5), []int{2}, []float64{1}, 1); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("indefinite observation covariance: err = %v, want ErrNotPositiveDefinite", err)
	}
}

// Posterior forms Σ_post in its argument's storage and returns it, and on an
// error leaves the argument as it was.
func TestPosteriorFormsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sigma := Matrix(uniformRandom(300, rng), &Exponential{Sigma2: 1, Range: 0.1})
	want, _, err := Posterior(sigma.Clone(), make([]float64, 300), []int{3, 40, 299}, []float64{1, -1, 0.5}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	data := &sigma.Data[0]
	post, _, err := Posterior(sigma, make([]float64, 300), []int{3, 40, 299}, []float64{1, -1, 0.5}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if post != sigma || &post.Data[0] != data {
		t.Fatal("Σ_post is not formed in Σ's storage")
	}
	if d := post.MaxAbsDiff(want); d != 0 {
		t.Errorf("in place differs from a posterior of a copy by %v", d)
	}

	bad := Matrix(uniformRandom(5, rng), &Exponential{Sigma2: 1, Range: 0.2})
	bad.Set(2, 2, -3)
	kept := bad.Clone()
	if _, _, err := Posterior(bad, make([]float64, 5), []int{2}, []float64{1}, 1); err == nil {
		t.Fatal("indefinite observation covariance: no error")
	}
	if d := bad.MaxAbsDiff(kept); d != 0 {
		t.Errorf("a refused posterior changed Σ by %v", d)
	}
}

// invSPD is A⁻¹ through A's Cholesky factor: L⁻ᵀ·L⁻¹·I.
func invSPD(t *testing.T, a *linalg.Matrix) *linalg.Matrix {
	t.Helper()
	l, err := linalg.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.Eye(a.Rows)
	linalg.TrsmLower(linalg.Left, false, 1, l, x)
	linalg.TrsmLower(linalg.Left, true, 1, l, x)
	return x
}

// precisionPosterior is eqs. 7–8 as written, the form Posterior computed
// before its kriging form: invert Σ, add 1/τ² on the observed diagonal (once
// per listing of a site) and invert again.
func precisionPosterior(t *testing.T, sigma *linalg.Matrix, mu []float64, obsIdx []int, y []float64, tau2 float64) (*linalg.Matrix, []float64) {
	n := sigma.Rows
	prec := invSPD(t, sigma)
	for _, i := range obsIdx {
		prec.Add(i, i, 1/tau2)
	}
	post := invSPD(t, prec)
	rhs := make([]float64, n)
	for k, i := range obsIdx {
		rhs[i] += (y[k] - mu[i]) / tau2
	}
	muPost := make([]float64, n)
	copy(muPost, mu)
	linalg.Gemv(false, 1, post, rhs, 1, muPost)
	return post, muPost
}

// The kriging form agrees with the precision form it replaces, from no
// observation to every site and with one site observed twice; its result is
// exactly symmetric and never raises a variance.
func TestPosteriorMatchesPrecisionForm(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(8))
	g := uniformRandom(n, rng)
	sigma := Matrix(g, &Exponential{Sigma2: 1, Range: 0.1})
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = 0.3 * rng.NormFloat64()
	}
	perm := rng.Perm(n)
	cases := []struct {
		name string
		obs  []int
	}{
		{"none", nil},
		{"one", perm[:1]},
		{"100", perm[:100]},
		{"all", perm},
		{"repeated", append(append([]int(nil), perm[:100]...), perm[7])},
	}
	const tau2 = 0.25
	for _, c := range cases {
		name, obs := c.name, c.obs
		y := make([]float64, len(obs))
		for k := range y {
			y[k] = rng.NormFloat64()
		}
		post, muPost, err := Posterior(sigma.Clone(), mu, obs, y, tau2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(obs) == 0 && post.MaxAbsDiff(sigma) != 0 {
			t.Errorf("no observation: posterior differs from the prior by %v", post.MaxAbsDiff(sigma))
		}
		wantPost, wantMu := precisionPosterior(t, sigma, mu, obs, y, tau2)
		if d := post.MaxAbsDiff(wantPost); d > 1e-12 {
			t.Errorf("%s: covariance differs from the precision form by %v", name, d)
		}
		dMu := 0.0
		for i := range muPost {
			dMu = math.Max(dMu, math.Abs(muPost[i]-wantMu[i]))
		}
		if dMu > 1e-12 {
			t.Errorf("%s: mean differs from the precision form by %v", name, dMu)
		}
		for j := 0; j < n; j++ {
			if v := post.At(j, j); v > sigma.At(j, j) {
				t.Errorf("%s: variance at %d rose from %v to %v", name, j, sigma.At(j, j), v)
			}
			for i := j + 1; i < n; i++ {
				if post.At(i, j) != post.At(j, i) {
					t.Fatalf("%s: post(%d,%d) = %v but post(%d,%d) = %v", name, i, j, post.At(i, j), j, i, post.At(j, i))
				}
			}
		}
	}
}

func TestKernelParamsRoundTrip(t *testing.T) {
	f := func(s, r, nu float64) bool {
		s2 := math.Abs(s) + 0.1
		rr := math.Abs(r) + 0.01
		nn := math.Mod(math.Abs(nu), 3) + 0.1
		m := NewMatern(s2, rr, nn)
		p := m.Params()
		return p[0] == s2 && p[1] == rr && p[2] == nn && m.Variance() == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
