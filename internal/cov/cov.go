// Package cov builds covariance matrices from spatial geometries and
// stationary covariance kernels — the Matérn family the paper uses
// (equation 6) plus the exponential and powered-exponential kernels of its
// synthetic datasets — and implements the posterior covariance/mean update
// (equations 7–8) used in the confidence-region experiments. It replaces the
// covariance module of ExaGeoStat.
//
// Kernels are evaluated in runs, not entries: Fill computes the covariances
// between one location and a slice of others in a single loop, and Block,
// Matrix and the streaming tile assemblers are all written over it. Kernel.Cov is the scalar definition
// every run is bit-identical to. A Matérn kernel of half-integer smoothness
// (2ν odd: ν = 1/2, 3/2, 5/2, …) is a polynomial in h/a times e^{−h/a} and
// is evaluated in that closed form, by Cov and Fill alike; it agrees with
// the Bessel-function expression of equation 6 to 1e-13 relative. The
// exponential kernel runs the same closed form with p = 1.
//
// On an AVX2+FMA host (the CPU probe of internal/stats; REPRO_NOASM=1 turns
// it off) the closed form runs four entries at a time in fill_amd64.s. The
// body replays the amd64 math.Hypot and math.Exp operation for operation,
// so each entry is the scalar loop's bits, not an approximation of them: a
// 4-entry block it cannot replay (a NaN or infinite coordinate, h/a > 708)
// and a ragged tail go to the scalar loop.
package cov

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// Kernel is a stationary isotropic covariance function C(h) of the distance
// h between two locations.
type Kernel interface {
	// Cov returns C(h) for distance h ≥ 0.
	Cov(h float64) float64
	// Variance returns C(0), the marginal variance.
	Variance() float64
	// Params returns the parameter vector in ExaGeoStat order
	// (variance, range, smoothness) where applicable.
	Params() []float64
}

// Matern is the Matérn covariance (paper eq. 6):
//
//	C(h) = σ²/(2^{ν-1}·Γ(ν)) · (h/a)^ν · K_ν(h/a)
//
// with marginal variance σ², spatial range a and smoothness ν.
type Matern struct {
	Sigma2 float64 // σ² > 0
	Range  float64 // a > 0
	Nu     float64 // ν > 0
	norm   float64 // cached 1/(2^{ν-1}Γ(ν))
	// half holds, when 2ν is odd (ν = m + 1/2), the coefficients of the
	// degree-m polynomial p with C(h) = σ²·p(t)·e^{−t}, t = h/a, highest
	// degree first; nil for every other ν.
	half []float64
}

// NewMatern returns a Matérn kernel; it panics on non-positive parameters.
func NewMatern(sigma2, rang, nu float64) *Matern {
	if sigma2 <= 0 || rang <= 0 || nu <= 0 {
		panic(fmt.Sprintf("cov: invalid Matérn parameters (%g,%g,%g)", sigma2, rang, nu))
	}
	return &Matern{
		Sigma2: sigma2, Range: rang, Nu: nu,
		norm: 1 / (math.Pow(2, nu-1) * math.Gamma(nu)),
		half: halfIntegerPoly(nu),
	}
}

// maxHalfOrder bounds the half-integer orders evaluated in closed form;
// beyond it the factorials below leave float64's exact-integer range and the
// Bessel path takes over.
const maxHalfOrder = 8

// halfIntegerPoly returns the closed-form polynomial of a Matérn kernel with
// ν = m + 1/2, or nil when 2ν is not odd. Substituting K_{m+1/2}(t) =
// √(π/2t)·e^{−t}·Σ_i (m+i)!/(i!(m−i)!)·(2t)^{−i} into equation 6 leaves
//
//	C(h) = σ²·e^{−t}·Σ_{j=0..m} 2^j·m!·(2m−j)! / ((2m)!·(m−j)!·j!) · t^j
//
// — 1, 1+t, 1+t+t²/3 for ν = 1/2, 3/2, 5/2.
func halfIntegerPoly(nu float64) []float64 {
	m := int(nu)
	if nu-float64(m) != 0.5 || m > maxHalfOrder {
		return nil
	}
	fact := func(n int) float64 {
		f := 1.0
		for i := 2; i <= n; i++ {
			f *= float64(i)
		}
		return f
	}
	c := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		c[m-j] = math.Ldexp(fact(m)*fact(2*m-j), j) / (fact(2*m) * fact(m-j) * fact(j))
	}
	return c
}

// halfCov evaluates the half-integer closed form at t = h/a > 0: Horner on
// the polynomial, σ² read from the kernel as the general path reads it, one
// exponential, and the clamps of the general path (a polynomial that overflowed against an exponential that underflowed
// is 0, and rounding never carries the value past σ²). Cov and Fill both
// call it, so a run and the scalar loop agree bit for bit.
func halfCov(c []float64, sigma2, t float64) float64 {
	p := c[0]
	for _, a := range c[1:] {
		p = p*t + a
	}
	v := sigma2 * p * math.Exp(-t)
	if !(v >= 0) { // NaN (∞·0) or negative
		return 0
	}
	return min(v, sigma2)
}

// Cov implements Kernel.
func (m *Matern) Cov(h float64) float64 {
	if h == 0 {
		return m.Sigma2
	}
	t := h / m.Range
	if m.half != nil {
		return halfCov(m.half, m.Sigma2, t)
	}
	v := m.Sigma2 * m.norm * math.Pow(t, m.Nu) * stats.BesselK(m.Nu, t)
	if math.IsNaN(v) || v < 0 {
		return 0 // deep underflow at extreme distances
	}
	return math.Min(v, m.Sigma2)
}

// Variance implements Kernel.
func (m *Matern) Variance() float64 { return m.Sigma2 }

// Params implements Kernel.
func (m *Matern) Params() []float64 { return []float64{m.Sigma2, m.Range, m.Nu} }

// Exponential is C(h) = σ²·exp(−h/a), the Matérn kernel with ν = 1/2,
// evaluated in closed form. The paper's synthetic datasets use this kernel
// with ranges 0.033 (weak), 0.1 (medium) and 0.234 (strong correlation).
type Exponential struct {
	Sigma2 float64
	Range  float64
}

// Cov implements Kernel.
func (e *Exponential) Cov(h float64) float64 { return e.Sigma2 * math.Exp(-h/e.Range) }

// Variance implements Kernel.
func (e *Exponential) Variance() float64 { return e.Sigma2 }

// Params implements Kernel.
func (e *Exponential) Params() []float64 { return []float64{e.Sigma2, e.Range, 0.5} }

// PoweredExponential is C(h) = σ²·exp(−(h/a)^p) for 0 < p ≤ 2.
type PoweredExponential struct {
	Sigma2 float64
	Range  float64
	Power  float64
}

// Cov implements Kernel.
func (p *PoweredExponential) Cov(h float64) float64 {
	return p.Sigma2 * math.Exp(-math.Pow(h/p.Range, p.Power))
}

// Variance implements Kernel.
func (p *PoweredExponential) Variance() float64 { return p.Sigma2 }

// Params implements Kernel.
func (p *PoweredExponential) Params() []float64 { return []float64{p.Sigma2, p.Range, p.Power} }

// Nugget wraps a kernel with additive white noise of variance Tau2 at
// distance zero, i.e. C'(0) = C(0) + τ², C'(h) = C(h) for h > 0. A small
// nugget keeps near-duplicate locations numerically positive definite.
type Nugget struct {
	Kernel
	Tau2 float64
}

// Cov implements Kernel.
func (n *Nugget) Cov(h float64) float64 { return withNugget(n.Kernel.Cov(h), h, n.Tau2) }

// Variance implements Kernel.
func (n *Nugget) Variance() float64 { return n.Kernel.Variance() + n.Tau2 }

// Fill evaluates one run of covariances: dst[r] = C(‖pts[r] − q‖) for every
// r < len(dst), exactly the value k.Cov(pts[r].Dist(q)) returns — the nugget
// lands on every distance that is exactly zero, not on an index match.
// len(pts) must be at least len(dst). A half-integer Matérn kernel, or an
// Exponential (ν = 1/2) with σ² in (0, MaxFloat64] and a > 0, under at most
// one Nugget, runs the closed-form loop free of interface dispatch; any other
// Kernel is evaluated entry by entry. (A NaN distance reads 0 on the closed
// form, as Matern.Cov reads it, where Exponential.Cov returns NaN.)
func Fill(k Kernel, dst []float64, pts []geo.Point, q geo.Point) {
	pts = pts[:len(dst)]
	tau2 := 0.0
	if n, ok := k.(*Nugget); ok {
		k, tau2 = n.Kernel, n.Tau2
	}
	switch k := k.(type) {
	case *Matern:
		if k.half != nil {
			fillHalf(dst, pts, q, k.half, k.Sigma2, k.Range, tau2)
			return
		}
	case *Exponential:
		// σ²·1 = σ² and (−h)/a = −(h/a), so the closed form is Cov's bits;
		// the gate keeps it off the parameters where its clamps would not be.
		if vecParams(k.Sigma2, k.Range) {
			fillHalf(dst, pts, q, expPoly, k.Sigma2, k.Range, tau2)
			return
		}
	}
	for r, p := range pts {
		h := p.Dist(q)
		dst[r] = withNugget(k.Cov(h), h, tau2)
	}
}

// expPoly is the exponential kernel's closed-form polynomial, p(t) = 1.
var expPoly = []float64{1}

// withNugget is Nugget.Cov's rule on an evaluated covariance c = C(h).
func withNugget(c, h, tau2 float64) float64 {
	if h == 0 {
		c += tau2
	}
	return c
}

// vecParams reports whether σ² and a are in the range where the vector body
// replays halfCov's clamps (and the exponential's closed form is Cov's):
// 0 < σ² ≤ MaxFloat64 and a > 0.
func vecParams(sigma2, rang float64) bool {
	return sigma2 > 0 && sigma2 <= math.MaxFloat64 && rang > 0
}

// fillHalf is Fill for a closed-form kernel σ²·p(t)·e^{−t}: on the AVX2 body
// four entries at a time where fillVec holds, and the scalar loop on every
// block the body leaves and on the ragged tail.
func fillHalf(dst []float64, pts []geo.Point, q geo.Point, c []float64, sigma2, rang, tau2 float64) {
	diag := sigma2 + tau2
	r := 0
	if fillVec && vecParams(sigma2, rang) {
		for n4 := len(dst) &^ 3; r < n4; r += 4 {
			r += fillHalfAVX2(dst[r:n4], pts[r:n4], q, c, sigma2, diag, rang)
			if r == n4 {
				break
			}
			fillHalfScalar(dst[r:r+4], pts[r:r+4], q, c, sigma2, diag, rang)
		}
	}
	fillHalfScalar(dst[r:], pts[r:], q, c, sigma2, diag, rang)
}

// fillHalfScalar is fillHalf's loop one entry at a time.
func fillHalfScalar(dst []float64, pts []geo.Point, q geo.Point, c []float64, sigma2, diag, rang float64) {
	for r, p := range pts[:len(dst)] {
		h := p.Dist(q)
		if h == 0 {
			dst[r] = diag
			continue
		}
		dst[r] = halfCov(c, sigma2, h/rang)
	}
}

// Matrix assembles the full covariance matrix Σ with Σij = C(‖si−sj‖), on
// a task runtime of GOMAXPROCS workers.
func Matrix(g *geo.Geom, k Kernel) *linalg.Matrix {
	rt := taskrt.New(runtime.GOMAXPROCS(0))
	defer rt.Shutdown()
	return matrix(rt, g, k)
}

// matrix is Matrix on rt: one task per 256 columns fills their lower part,
// one Fill per column, and mirrors them into the upper triangle — the serial
// column loop's bits.
func matrix(rt taskrt.Submitter, g *geo.Geom, k Kernel) *linalg.Matrix {
	n := g.Len()
	sigma := linalg.NewMatrix(n, n)
	linalg.BlockTasks(rt, "fill", n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			Fill(k, sigma.Col(j)[j:], g.Pts[j:], g.Pts[j])
		}
		sigma.SymmetrizeCols(lo, hi)
	})
	return sigma
}

// Block fills dst (r×c) with the covariance sub-block whose rows are
// locations row0..row0+r and columns col0..col0+c of g, one Fill per column.
// This is the tile-assembly kernel the tiled data structures call lazily. A
// closed-form kernel's columns run on the vector body where the host has it,
// with the scalar loop's bits (see the package doc).
func Block(dst *linalg.Matrix, g *geo.Geom, k Kernel, row0, col0 int) {
	for j := 0; j < dst.Cols; j++ {
		Fill(k, dst.Col(j), g.Pts[row0:], g.Pts[col0+j])
	}
}

// Posterior computes the posterior covariance and mean of a latent field x
// observed at the locations obsIdx with i.i.d. N(0, tau2) noise: paper
// eqs. 7–8, Σ_post = (Σ⁻¹ + (1/τ²)AᵀA)⁻¹ with A the indicator of obsIdx. By
// Woodbury's identity that is the kriging form computed here,
//
//	Σ_post = Σ − Σ_{·O}·(Σ_OO + τ²I)⁻¹·Σ_{O·}
//	µ_post = µ + Σ_{·O}·(Σ_OO + τ²I)⁻¹·(y − µ_O)
//
// With Σ_OO + τ²I = L·Lᵀ and W = L⁻¹Σ_{O·}, Σ_post = Σ − WᵀW (one SYRK) and
// µ_post = µ + Wᵀ·L⁻¹(y − µ_O): for m observations of n locations, one m×m
// Cholesky and O(m³ + m²n + mn²) work. Σ (symmetric) is not factored, so an
// indefinite prior is not refused here but at the next factorization of
// Σ_post. An index listed twice is two independent observations of one site.
// tau2 must be finite and positive and every y[k] and mu[i] finite; a
// Σ_OO + τ²I that is not positive definite is an error wrapping
// linalg.ErrNotPositiveDefinite. The algebra runs on a task runtime of
// GOMAXPROCS workers, with the serial kernels' bits.
func Posterior(sigma *linalg.Matrix, mu []float64, obsIdx []int, y []float64, tau2 float64) (*linalg.Matrix, []float64, error) {
	rt := taskrt.New(runtime.GOMAXPROCS(0))
	defer rt.Shutdown()
	return posterior(rt, sigma, mu, obsIdx, y, tau2)
}

// posterior is Posterior on rt: the m×m Cholesky, the solve (a task per 256
// columns of W, each gathering its columns first), the SYRK (a task per
// 256×256 tile of Σ_post's lower triangle) and the mirror (a task per 256
// columns) are linalg's task forms of the serial kernels.
func posterior(rt taskrt.Submitter, sigma *linalg.Matrix, mu []float64, obsIdx []int, y []float64, tau2 float64) (*linalg.Matrix, []float64, error) {
	n := sigma.Rows
	if len(mu) != n {
		return nil, nil, fmt.Errorf("cov: mu length %d != n %d", len(mu), n)
	}
	if len(obsIdx) != len(y) {
		return nil, nil, fmt.Errorf("cov: %d observation indices but %d values", len(obsIdx), len(y))
	}
	if !(tau2 > 0) || math.IsInf(tau2, 1) {
		return nil, nil, fmt.Errorf("cov: noise variance %g, want finite and > 0", tau2)
	}
	for k, i := range obsIdx {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("cov: observation index %d out of range", i)
		}
		if v := y[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("cov: observation y[%d] = %g, want finite", k, v)
		}
	}
	for i, v := range mu {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("cov: prior mean mu[%d] = %g, want finite", i, v)
		}
	}
	m := len(obsIdx)
	s := linalg.NewMatrix(m, m)
	for l, i := range obsIdx {
		sl, si := s.Col(l), sigma.Col(i)
		for k, o := range obsIdx {
			sl[k] = si[o]
		}
		s.Add(l, l, tau2)
	}
	l, err := linalg.CholeskyTasks(rt, s)
	if err != nil {
		return nil, nil, fmt.Errorf("cov: observation covariance Σ_OO + τ²I: %w", err)
	}
	// W = L⁻¹·Σ_{O·}, gathered column by column; its last column holds
	// L⁻¹(y − µ_O), so one solve takes both right-hand sides.
	w := linalg.NewMatrix(m, n+1)
	r := w.Col(n)
	for k, i := range obsIdx {
		r[k] = y[k] - mu[i]
	}
	linalg.BlockTasks(rt, "solve", n+1, func(lo, hi int) {
		for j := lo; j < min(hi, n); j++ {
			sj, wj := sigma.Col(j), w.Col(j)
			for k, i := range obsIdx {
				wj[k] = sj[i]
			}
		}
		linalg.TrsmLowerPart(linalg.Left, false, l, w, lo, hi)
	})
	post := linalg.NewMatrix(n, n)
	linalg.BlockTasks(rt, "copy", n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			copy(post.Col(j)[j:], sigma.Col(j)[j:]) // the mirror writes the upper triangle
		}
	})
	wo := w.View(0, 0, m, n)
	linalg.SyrkTasks(rt, true, -1, wo, post)
	linalg.SymmetrizeTasks(rt, post)
	muPost := make([]float64, n)
	copy(muPost, mu)
	linalg.Gemv(true, 1, wo, r, 1, muPost)
	return post, muPost, nil
}
