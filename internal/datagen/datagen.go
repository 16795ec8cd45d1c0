// Package datagen simulates stationary Gaussian random fields and fits
// their covariance parameters by maximum likelihood — the two roles
// ExaGeoStat plays in the paper: generating the synthetic datasets
// (exponential kernel, ranges 0.033/0.1/0.234) and estimating Matérn
// parameters for the wind-speed application.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/optim"
)

// Field is a simulated Gaussian random field: locations, values and the
// kernel that generated it.
type Field struct {
	Geom   *geo.Geom
	Values []float64
	Kernel cov.Kernel
}

// Simulate draws one mean-zero realization of the Gaussian field with the
// given kernel at the locations of g: z = L·e with Σ = L·Lᵀ.
func Simulate(g *geo.Geom, k cov.Kernel, rng *rand.Rand) (*Field, error) {
	l, err := linalg.CholeskyInPlace(cov.Matrix(g, k))
	if err != nil {
		return nil, fmt.Errorf("datagen: covariance not PD: %w", err)
	}
	n := g.Len()
	e := make([]float64, n)
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := 0.0
		for j := 0; j <= i; j++ {
			acc += l.At(i, j) * e[j]
		}
		z[i] = acc
	}
	return &Field{Geom: g, Values: z, Kernel: k}, nil
}

// NegLogLikelihood returns the Gaussian negative log-likelihood of the
// observations y at locations g under kernel k:
//
//	ℓ(θ) = ½·yᵀΣ⁻¹y + ½·log|Σ| + (n/2)·log 2π
//
// computed through one Cholesky factorization. It returns +Inf when Σ(θ) is
// not positive definite, which makes it directly usable as an optimization
// objective.
func NegLogLikelihood(g *geo.Geom, y []float64, k cov.Kernel) float64 {
	sigma := cov.Matrix(g, k)
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		return math.Inf(1)
	}
	n := g.Len()
	// Solve L·w = y, then yᵀΣ⁻¹y = wᵀw.
	w := append([]float64(nil), y...)
	wm := linalg.FromColMajor(n, 1, w)
	linalg.TrsmLower(linalg.Left, false, 1, l, wm)
	quad := linalg.Dot(w, w)
	return 0.5*quad + 0.5*linalg.LogDetFromChol(l) + 0.5*float64(n)*math.Log(2*math.Pi)
}

// FitResult reports an MLE fit.
type FitResult struct {
	Kernel cov.Kernel
	NegLL  float64
	Evals  int
}

// FitMatern estimates Matérn parameters (σ², a, ν) by maximum likelihood
// with Nelder–Mead in log-parameter space (which enforces positivity), the
// procedure the paper runs in ExaGeoStat. start provides the initial
// parameters.
func FitMatern(g *geo.Geom, y []float64, start cov.Matern, maxEvals int) FitResult {
	obj := func(logp []float64) float64 {
		s2 := math.Exp(logp[0])
		rg := math.Exp(logp[1])
		nu := math.Exp(logp[2])
		if nu > 10 || rg > 100 || s2 > 1e6 { // keep the simplex in sane territory
			return math.Inf(1)
		}
		return NegLogLikelihood(g, y, cov.NewMatern(s2, rg, nu))
	}
	x0 := []float64{math.Log(start.Sigma2), math.Log(start.Range), math.Log(start.Nu)}
	res := optim.Minimize(obj, x0, optim.Options{MaxEvals: maxEvals, Step: 0.3, TolF: 1e-6, TolX: 1e-5})
	k := cov.NewMatern(math.Exp(res.X[0]), math.Exp(res.X[1]), math.Exp(res.X[2]))
	return FitResult{Kernel: k, NegLL: res.F, Evals: res.Evals}
}

// FitExponential estimates (σ², a) for the exponential kernel by maximum
// likelihood.
func FitExponential(g *geo.Geom, y []float64, startSigma2, startRange float64, maxEvals int) FitResult {
	obj := func(logp []float64) float64 {
		return NegLogLikelihood(g, y, &cov.Exponential{
			Sigma2: math.Exp(logp[0]),
			Range:  math.Exp(logp[1]),
		})
	}
	x0 := []float64{math.Log(startSigma2), math.Log(startRange)}
	res := optim.Minimize(obj, x0, optim.Options{MaxEvals: maxEvals, Step: 0.3, TolF: 1e-6, TolX: 1e-5})
	k := &cov.Exponential{Sigma2: math.Exp(res.X[0]), Range: math.Exp(res.X[1])}
	return FitResult{Kernel: k, NegLL: res.F, Evals: res.Evals}
}

// PaperSyntheticRanges are the three exponential-kernel range parameters of
// the paper's synthetic datasets: weak, medium and strong correlation.
var PaperSyntheticRanges = map[string]float64{
	"weak":   0.033,
	"medium": 0.1,
	"strong": 0.234,
}

// SyntheticDataset reproduces the paper's synthetic-data pipeline
// (Section V-B): simulate a field on a grid with the exponential kernel of
// the named correlation level, select nObs random locations, perturb them
// with N(0, 0.5²) noise, and compute the posterior covariance and mean
// (eqs. 7–8) that feed the confidence-region detection.
type SyntheticDataset struct {
	Field   *Field
	ObsIdx  []int
	Y       []float64 // noisy observations
	PostCov *linalg.Matrix
	PostMu  []float64
}

// NewSyntheticDataset builds the dataset; level must be one of
// "weak", "medium", "strong".
func NewSyntheticDataset(gridSide, nObs int, level string, rng *rand.Rand) (*SyntheticDataset, error) {
	rg, ok := PaperSyntheticRanges[level]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown correlation level %q", level)
	}
	g := geo.RegularGrid(gridSide, gridSide)
	k := &cov.Exponential{Sigma2: 1, Range: rg}
	field, err := Simulate(g, k, rng)
	if err != nil {
		return nil, err
	}
	n := g.Len()
	if nObs > n {
		nObs = n
	}
	const tau = 0.5 // observation noise sd, as in the paper
	perm := rng.Perm(n)[:nObs]
	y := make([]float64, nObs)
	for i, idx := range perm {
		y[i] = field.Values[idx] + tau*rng.NormFloat64()
	}
	sigma := cov.Matrix(g, k)
	mu := make([]float64, n)
	postCov, postMu, err := cov.Posterior(sigma, mu, perm, y, tau*tau)
	if err != nil {
		return nil, err
	}
	return &SyntheticDataset{Field: field, ObsIdx: perm, Y: y, PostCov: postCov, PostMu: postMu}, nil
}
