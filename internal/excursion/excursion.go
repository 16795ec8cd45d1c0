// Package excursion implements the confidence-region (excursion-set)
// detection of Bolin & Lindgren driven by high-dimensional MVN
// probabilities — the paper's Algorithm 1. Locations are ordered by
// marginal exceedance probability; the positive confidence function
// F⁺(s) is the joint probability that every location in the prefix ending
// at s exceeds the threshold; the confidence region at level 1−α is the
// largest prefix whose joint probability still exceeds 1−α.
//
// One sweep per detection. The prefixes are nested along the marginal
// ordering, so the correlation matrix is factored IN that ordering
// (Plan.CorrelationRuns): every prefix is then a leading block, and the
// SOV estimator of a leading block's probability is the running product of
// the same chains after row k — the sequential-integration form Bolin &
// Lindgren's method is built on. A single full-dimension integration
// (Plan.Integrate → mvn.PMVNPrefix) therefore yields F⁺ at all n prefixes,
// exactly, with nothing to interpolate or bisect; each chain's product only
// shrinks, so F⁺ is non-increasing along the ordering by construction.
//
// Cost, in sweep flops with N chains: the literal Algorithm 1 loop is n
// integrations, n·n²·N; evaluating `nodes` prefixes and bisecting for the
// boundary was (nodes + log₂n)·n²·N; this plan is one factorization plus one
// sweep, n³/3 + n²·N. The ordered matrix is never stored: the factorization's
// assemble tasks gather each tile from the caller's rows through
// CorrelationRuns, n²/2 reads on the workers and no n×n copy. The factor is
// keyed by the ordering, so a detection with a new mean or threshold
// refactorizes where the old plan reused a location-ordered factor — still a
// win whenever n³/3 < (nodes+log₂n−1)·n²·N, i.e. n ≲ 78·N at 16 nodes and
// n = 2500 (there: ≈170 Gflop → ≈12 Gflop). Marginal order is not spatial
// order, so a TLR/adaptive factor compresses less than it does for the same
// field in location order — and cannot be factored in location order either:
// only in the marginal ordering is every prefix a leading block.
package excursion

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// InputError reports a detection input — a mean, a standard deviation, a
// covariance diagonal entry or the threshold — that is not a usable number.
type InputError struct {
	What  string // "mean", "sd", "covariance diagonal", "threshold"
	Index int    // location index; -1 for the threshold
	Value float64
}

func (e *InputError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("excursion: %s = %g is not finite", e.What, e.Value)
	}
	return fmt.Sprintf("excursion: %s[%d] = %g is not usable", e.What, e.Index, e.Value)
}

// finitePositive is written so NaN fails it (s <= 0 is false for NaN).
func finitePositive(s float64) bool { return s > 0 && !math.IsInf(s, 1) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// StdDevs returns √Σii for the symmetric n×n matrix whose i-th row (or
// column) is row(i), rejecting a diagonal entry that is not finite and
// positive.
func StdDevs(row func(i int) []float64, n int) ([]float64, error) {
	sd := make([]float64, n)
	for i := range sd {
		if len(row(i)) != n {
			return nil, fmt.Errorf("excursion: covariance row %d has %d entries, want %d", i, len(row(i)), n)
		}
		d := row(i)[i]
		if !finitePositive(d) {
			return nil, &InputError{What: "covariance diagonal", Index: i, Value: d}
		}
		sd[i] = math.Sqrt(d)
	}
	return sd, nil
}

// Marginals returns the marginal exceedance probabilities
// pM[i] = P(X_i > u) = 1 − Φ((u − mean[i])/sd[i])  (Algorithm 1, lines 3–5).
func Marginals(mean, sd []float64, u float64) []float64 {
	p := make([]float64, len(mean))
	for i := range p {
		p[i] = 1 - stats.Phi((u-mean[i])/sd[i])
	}
	return p
}

// Order returns the location indices sorted by decreasing marginal
// probability (the opM vector of Algorithm 1, line 6). Ties break by index
// for determinism.
func Order(pM []float64) []int {
	idx := make([]int, len(pM))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pM[idx[a]] > pM[idx[b]] })
	return idx
}

// CorrelationFromCovariance returns the correlation matrix
// R = D^{-1/2}·Σ·D^{-1/2} in location order and the standard deviations
// √Σii — what the MC validation samples from.
func CorrelationFromCovariance(sigma *linalg.Matrix) (*linalg.Matrix, []float64) {
	n := sigma.Rows
	sd := make([]float64, n)
	order := make([]int, n)
	for i := range sd {
		sd[i] = math.Sqrt(sigma.At(i, i))
		order[i] = i
	}
	return (&Plan{order: order}).Correlation(sigma.Col, sd), sd
}

// Plan is the part of a detection problem that exists before any factor
// does: the marginal distribution at each location (Mean, SD), the threshold
// U, and from them the marginal probabilities and their ordering.
type Plan struct {
	Mean []float64
	SD   []float64
	U    float64

	pM    []float64
	order []int
}

// NewPlan validates the inputs and computes the marginal ordering for
// positive excursion sets E⁺ (X > u).
func NewPlan(mean, sd []float64, u float64) (*Plan, error) {
	if len(mean) != len(sd) {
		return nil, fmt.Errorf("excursion: mean/sd lengths (%d,%d) differ", len(mean), len(sd))
	}
	if !finite(u) {
		return nil, &InputError{What: "threshold", Index: -1, Value: u}
	}
	for i := range mean {
		if !finite(mean[i]) {
			return nil, &InputError{What: "mean", Index: i, Value: mean[i]}
		}
		if !finitePositive(sd[i]) {
			return nil, &InputError{What: "sd", Index: i, Value: sd[i]}
		}
	}
	pM := Marginals(mean, sd, u)
	return &Plan{Mean: mean, SD: sd, U: u, pM: pM, order: Order(pM)}, nil
}

// MarginalProbs returns pM.
func (p *Plan) MarginalProbs() []float64 { return p.pM }

// Ordering returns opM, the indices ordered by decreasing marginal
// probability.
func (p *Plan) Ordering() []int { return p.order }

// CorrelationRuns is the one definition of the matrix a detection factors:
// the correlation matrix of the symmetric covariance whose i-th row is row(i),
// standardized by scale[i] = √Σii (nil when the rows are already a correlation
// matrix) and permuted into the marginal ordering, as a column-run evaluator
// (the signature of engine.RunFill): dst[r] = R(row0+r, j) =
// row(order[j])[order[row0+r]] / (scale·scale). It reads the caller's rows in
// place and is safe for concurrent calls.
func (p *Plan) CorrelationRuns(row func(i int) []float64, scale []float64) func(dst []float64, row0, j int) {
	return func(dst []float64, row0, j int) {
		lq := p.order[j]
		src, run := row(lq), p.order[row0:row0+len(dst)]
		if scale == nil {
			for r, lp := range run {
				dst[r] = src[lp]
			}
			return
		}
		sq := scale[lq]
		for r, lp := range run {
			dst[r] = src[lp] / (scale[lp] * sq)
		}
	}
}

// Correlation materializes CorrelationRuns(row, scale) — the matrix to factor
// for Integrate — for tests and figures.
func (p *Plan) Correlation(row func(i int) []float64, scale []float64) *linalg.Matrix {
	fill := p.CorrelationRuns(row, scale)
	r := linalg.NewMatrix(len(p.order), len(p.order))
	for j := range p.order {
		fill(r.Col(j), 0, j)
	}
	return r
}

// Integrate makes the detection's one PMVN integration: f must be a Cholesky
// factor of p.Correlation(…) (any factor kind). The limits are the
// standardized thresholds in marginal order, and the sweep's running product
// after row k is the joint probability of the top-k prefix (Algorithm 1,
// lines 10–15, for every k at once). Of opts it takes the sample size and
// the replicates; budgets are ignored (mvn.PMVNPrefix).
func (p *Plan) Integrate(rt *taskrt.Runtime, f *mvn.Factor, opts mvn.Options) (*Computer, error) {
	n := len(p.order)
	if f.N() != n {
		return nil, fmt.Errorf("excursion: factor dimension %d != %d locations", f.N(), n)
	}
	a, b := make([]float64, n), make([]float64, n)
	for rank, loc := range p.order {
		a[rank], b[rank] = (p.U-p.Mean[loc])/p.SD[loc], math.Inf(1) // P(X > u) on the prefix
	}
	return &Computer{Plan: p, prefix: mvn.PMVNPrefix(rt, f, a, b, opts)}, nil
}

// Computer holds the joint prefix probabilities of one integrated detection.
type Computer struct {
	*Plan
	prefix mvn.Prefix
}

// PrefixProb returns the joint probability that the top-k locations (in
// marginal order) all exceed U; k ≤ 0 gives 1 and k > n clamps to n.
func (c *Computer) PrefixProb(k int) float64 {
	if k <= 0 {
		return 1
	}
	return c.prefix.Prob[min(k, len(c.order))-1]
}

// ConfidenceFunction returns F⁺ per location index: the joint probability of
// the prefix ending at that location, evaluated at every rank.
func (c *Computer) ConfidenceFunction() []float64 {
	f := make([]float64, len(c.order))
	for rank, loc := range c.order {
		f[loc] = c.prefix.Prob[rank]
	}
	return f
}

// Region returns the confidence region E⁺_{u,α} at confidence level conf =
// 1−α: the indices of the largest marginal-ordered prefix whose joint
// exceedance probability is still ≥ conf.
func (c *Computer) Region(conf float64) []int {
	k := sort.Search(len(c.order), func(i int) bool { return c.prefix.Prob[i] < conf })
	return append([]int(nil), c.order[:k]...)
}

// MCValidate draws samples of the standardized field (via the correlation
// Cholesky factor lCorr, in location order) and returns the fraction for
// which EVERY location of the region exceeds the threshold — the MC estimate
// p̂(α) that should match 1−α when the region is correct (the validation
// algorithm of the paper's Section V-C). Only the region's rows of lCorr·z
// are formed, from a row gather made once.
func MCValidate(region []int, mean, sd []float64, u float64, lCorr *linalg.Matrix, samples int, rng *rand.Rand) float64 {
	if len(region) == 0 {
		return 1
	}
	// rows[i] = row region[i] of lCorr up to its diagonal; lim[i] the
	// standardized limit there.
	last := 0
	rows := make([][]float64, len(region))
	lim := make([]float64, len(region))
	for i, loc := range region {
		rows[i] = make([]float64, loc+1)
		lim[i] = (u - mean[loc]) / sd[loc]
		last = max(last, loc)
	}
	for j := 0; j <= last; j++ {
		col := lCorr.Col(j)
		for i, loc := range region {
			if j <= loc {
				rows[i][j] = col[loc]
			}
		}
	}
	z := make([]float64, last+1)
	hits := 0
sample:
	for s := 0; s < samples; s++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for i, row := range rows {
			if linalg.Dot(row, z[:len(row)]) <= lim[i] {
				continue sample
			}
		}
		hits++
	}
	return float64(hits) / float64(samples)
}
