// Package datagen simulates stationary Gaussian random fields — the role
// ExaGeoStat plays in the paper's synthetic experiments: the datasets of
// Section V-B (exponential kernel, ranges 0.033/0.1/0.234) and the posterior
// covariance and mean their confidence regions are detected on.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
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
