package mvn

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
	"repro/internal/taskrt"
)

// The multivariate Student-t (MVT) probability extends the SOV machinery
// with one extra QMC dimension: following Genz & Bretz, if X ~ t_ν(0,Σ)
// then X = Z·√(ν/S) with Z ~ N(0,Σ) and S ~ χ²_ν, so
//
//	T_n(a,b;Σ,ν) = E_s[ Φn(s·a, s·b; Σ) ],  s = √(χ²inv_ν(w₀)/ν).
//
// Each chain draws w₀ to fix its scale s and then runs the ordinary MVN
// recursion on the scaled limits. This is the capability of the paper's
// reference R package tlrmvnmvt [17], reproduced on the same tiled
// dense/TLR backends.

// SOVSequentialT evaluates the MVT probability T_n(a,b;Σ,ν) given the
// dense lower Cholesky factor l of Σ, using N points from gen, which must
// have dimension dim+1 (the extra leading coordinate drives the χ² draw).
func SOVSequentialT(a, b []float64, l *linalg.Matrix, nu float64, gen qmc.Generator, n int) float64 {
	dim := l.Rows
	if len(a) != dim || len(b) != dim {
		panic("mvn: limit vectors must match factor dimension")
	}
	if gen.Dim() != dim+1 {
		panic(fmt.Sprintf("mvn: MVT generator needs dim %d, got %d", dim+1, gen.Dim()))
	}
	if nu <= 0 {
		panic("mvn: degrees of freedom must be positive")
	}
	w := make([]float64, dim+1)
	y := make([]float64, dim)
	as := make([]float64, dim)
	bs := make([]float64, dim)
	sum := 0.0
	for sIdx := 0; sIdx < n; sIdx++ {
		gen.Next(w)
		s := chiScale(w[0], nu)
		for i := 0; i < dim; i++ {
			as[i] = scaleLimit(a[i], s)
			bs[i] = scaleLimit(b[i], s)
		}
		p := 1.0
		for i := 0; i < dim; i++ {
			acc := 0.0
			for j := 0; j < i; j++ {
				acc += l.At(i, j) * y[j]
			}
			d := l.At(i, i)
			factor, yi := chainStep(shiftLimit(as[i], acc, d), shiftLimit(bs[i], acc, d), w[i+1])
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

// chiScale maps a uniform draw to s = √(χ²inv_ν(w)/ν).
//repro:noalloc
func chiScale(w, nu float64) float64 {
	return math.Sqrt(stats.Chi2Inv(w, nu) / nu)
}

//repro:noalloc
func scaleLimit(v, s float64) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	return v * s
}

// PMVT evaluates the MVT probability T_n(a,b;Σ,ν) on the chain-blocked
// backend: the identical sweep to PMVN, with each lane's limits pre-scaled
// by its χ² draw (the generator's extra leading coordinate). It is the same
// integration loop as PMVN (integrate), replicates, budgets and all.
//repro:noalloc
func PMVT(rt *taskrt.Runtime, f *Factor, a, b []float64, nu float64, opt Options) Result {
	n := f.N()
	if len(a) != n || len(b) != n {
		//repro:alloc-ok shape-mismatch panic path
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	if nu <= 0 {
		panic("mvn: degrees of freedom must be positive")
	}
	return integrate(rt, f, a, b, opt.withDefaults(f.TS()), nu, nil)
}
