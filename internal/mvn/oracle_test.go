package mvn

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
)

// The reference oracles the tests compare the tiled integration against.

// SOVSequential evaluates Φn(a,b;0,Σ) given the dense lower Cholesky factor
// l of Σ, using the first n points of gen (dimension ≥ l.Rows). It is the
// direct transcription of Genz's sequential algorithm and returns the sample
// mean of the per-chain probability products.
func SOVSequential(a, b []float64, l *linalg.Matrix, gen *qmc.Richtmyer, n int) float64 {
	dim := l.Rows
	w := make([]float64, dim)
	pt := &linalg.Matrix{Rows: 1, Cols: dim, Stride: 1, Data: w}
	y := make([]float64, dim)
	sum := 0.0
	for s := 0; s < n; s++ {
		gen.FillBlock(pt, s, 0)
		p := 1.0
		for i := 0; i < dim; i++ {
			acc := 0.0
			for j := 0; j < i; j++ {
				acc += l.At(i, j) * y[j]
			}
			d := l.At(i, i)
			factor, yi := chainStep(shiftLimit(a[i], acc, d), shiftLimit(b[i], acc, d), w[i])
			p *= factor
			y[i] = yi
			if p == 0 {
				break
			}
		}
		sum += p
	}
	return sum / float64(n)
}

// SOVSequentialT evaluates the MVT probability T_n(a,b;Σ,ν) given the dense
// lower Cholesky factor l of Σ, using the first n points of gen, which must
// have dimension l.Rows+1 (the extra leading coordinate drives the χ² draw).
func SOVSequentialT(a, b []float64, l *linalg.Matrix, nu float64, gen *qmc.Richtmyer, n int) float64 {
	dim := l.Rows
	w := make([]float64, dim+1)
	pt := &linalg.Matrix{Rows: 1, Cols: dim + 1, Stride: 1, Data: w}
	y := make([]float64, dim)
	sum := 0.0
	for sIdx := 0; sIdx < n; sIdx++ {
		gen.FillBlock(pt, sIdx, 0)
		s := chiScale(w[0], nu)
		p := 1.0
		for i := 0; i < dim; i++ {
			acc := 0.0
			for j := 0; j < i; j++ {
				acc += l.At(i, j) * y[j]
			}
			d := l.At(i, i)
			factor, yi := chainStep(shiftLimit(scaleLimit(a[i], s), acc, d), shiftLimit(scaleLimit(b[i], s), acc, d), w[i+1])
			p *= factor
			y[i] = yi
			if p == 0 {
				break
			}
		}
		sum += p
	}
	return sum / float64(n)
}

// ProductForm returns the exact MVN probability when Σ is diagonal with
// variances v: the product of univariate interval probabilities.
func ProductForm(a, b, v []float64) float64 {
	p := 1.0
	for i := range a {
		sd := math.Sqrt(v[i])
		p *= stats.PhiInterval(shiftLimit(a[i], 0, sd), shiftLimit(b[i], 0, sd))
	}
	return p
}

// MCPlain estimates Φn(a,b;0,Σ) by naive Monte Carlo: draw x = L·z with
// z ~ N(0,I) and count the fraction of draws inside the box [a,b] — the
// "naive MC chains" baseline the paper validates against.
func MCPlain(a, b []float64, l *linalg.Matrix, samples int, rng *rand.Rand) float64 {
	n := l.Rows
	z := make([]float64, n)
	hits := 0
	for s := 0; s < samples; s++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		inside := true
		for i := 0; i < n && inside; i++ {
			acc := 0.0
			for j := 0; j <= i; j++ {
				acc += l.At(i, j) * z[j]
			}
			inside = acc > a[i] && acc <= b[i]
		}
		if inside {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}
