package mvn

import (
	"fmt"
	"math"

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

// chiScale maps a uniform draw to s = √(χ²inv_ν(w)/ν).
func chiScale(w, nu float64) float64 {
	return math.Sqrt(stats.Chi2Inv(w, nu) / nu)
}

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
func PMVT(rt *taskrt.Runtime, f *Factor, a, b []float64, nu float64, opt Options) Result {
	n := f.N()
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	if nu <= 0 {
		panic("mvn: degrees of freedom must be positive")
	}
	o := opt.withDefaults()
	return integrate(rt, f, a, b, o, laneWidth(f, o), nu, nil)
}
