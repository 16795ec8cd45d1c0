// Package datagen simulates stationary Gaussian random fields — the role
// ExaGeoStat plays in the paper's synthetic experiments: the datasets of
// Section V-B (exponential kernel, ranges 0.033/0.1/0.234) and the posterior
// covariance and mean their confidence regions are detected on — and the
// synthetic Saudi-Arabia wind record of its application (GenerateWind).
package datagen

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// Field is a simulated Gaussian random field: locations, values and the
// kernel that generated it.
type Field struct {
	Geom   *geo.Geom
	Values []float64
	Kernel cov.Kernel
}

// Simulate draws one mean-zero realization of the Gaussian field with the
// given kernel at the locations of g. Σ is assembled and factored on the
// task runtime, with the serial kernels' bits.
func Simulate(g *geo.Geom, k cov.Kernel, rng *rand.Rand) (*Field, error) {
	field, err := newSampler(cov.Matrix(g, k))
	if err != nil {
		return nil, err
	}
	z := make([]float64, g.Len())
	field.draw(rng, z)
	return &Field{Geom: g, Values: z, Kernel: k}, nil
}

// sampler draws mean-zero realizations z = L·e of a Gaussian field, Σ = L·Lᵀ
// factored once and e standard normal: one draw for Simulate, one per day for
// the wind generator's anomaly.
type sampler struct {
	l *linalg.Matrix
	e []float64
}

// newSampler factors sigma in place, on a runtime of GOMAXPROCS workers
// (linalg.CholeskyTasks: CholeskyInPlace's bits).
func newSampler(sigma *linalg.Matrix) (*sampler, error) {
	rt := taskrt.New(runtime.GOMAXPROCS(0))
	defer rt.Shutdown()
	l, err := linalg.CholeskyTasks(rt, sigma)
	if err != nil {
		return nil, fmt.Errorf("datagen: covariance not PD: %w", err)
	}
	return &sampler{l: l, e: make([]float64, l.Rows)}, nil
}

// draw fills z with one realization, e drawn from rng. L is walked down its
// columns, not along its rows, and each z[i] still sums its terms from
// j = 0 up, from zero: the row-by-row dot product's bits.
func (s *sampler) draw(rng *rand.Rand, z []float64) {
	for i := range s.e {
		s.e[i] = rng.NormFloat64()
	}
	clear(z)
	for j, ej := range s.e {
		lj := s.l.Col(j)[j:]
		zj := z[j : j+len(lj)]
		for i, v := range lj {
			zj[i] += v * ej
		}
	}
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
