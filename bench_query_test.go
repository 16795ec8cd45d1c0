// BenchmarkQuery measures the warm-query serving path: the session's factor
// cache already holds the Cholesky factor, so each iteration pays only the
// PMVN integration — the regime of a served workload where millions of
// queries hit a handful of cached covariances.
//
//	go test -run=NONE -bench=BenchmarkQuery -benchtime=5x .
//
// Three limit regimes bracket the workload:
//
//   - excursion: a common finite lower limit on every coordinate (the joint
//     exceedance probability of confidence-region detection); chains die
//     progressively as the product underflows.
//   - prefix: finite limits on the first tile's worth of coordinates and
//     (-∞,+∞) elsewhere — the PrefixProb query shape of Algorithm 1, where
//     most rows are unconstrained.
//   - wide: a ±6 box, probability ≈ 1 — no chain ever dies, so every row of
//     every chain runs the special functions (the worst case for the
//     integrator).
package parmvn

import (
	"math"
	"testing"
)

// queryBenchLimits builds the three limit regimes for dimension n.
func queryBenchLimits(n int) map[string][2][]float64 {
	excA := make([]float64, n)
	excB := make([]float64, n)
	preA := make([]float64, n)
	preB := make([]float64, n)
	wideA := make([]float64, n)
	wideB := make([]float64, n)
	for i := 0; i < n; i++ {
		excA[i] = -1
		excB[i] = math.Inf(1)
		if i < 64 {
			preA[i] = -0.5
		} else {
			preA[i] = math.Inf(-1)
		}
		preB[i] = math.Inf(1)
		wideA[i] = -6
		wideB[i] = 6
	}
	return map[string][2][]float64{
		"excursion": {excA, excB},
		"prefix":    {preA, preB},
		"wide":      {wideA, wideB},
	}
}

func benchWarmQuery(b *testing.B, method Method, side int, regime string, maxRelErr float64) {
	locs := Grid(side, side)
	n := len(locs)
	kernel := KernelSpec{Family: "matern", Range: 0.2, Nu: 2.5, Nugget: 0.05}
	lim := queryBenchLimits(n)[regime]
	s := NewSession(Config{
		Method: method, TileSize: 64, QMCSize: 1000, TLRTol: 1e-6,
	})
	defer s.Close()
	opts := QueryOpts{MaxRelErr: maxRelErr}
	// Warm the factor cache: iterations measure only the integration.
	if _, err := s.MVNProbOpts(locs, kernel, lim[0], lim[1], opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MVNProbOpts(locs, kernel, lim[0], lim[1], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery: warm-factor MVN queries (N=1000 chains) across methods,
// sizes and limit regimes. The earlystop rows run the same query with a 1e-3 relative-error target: the
// integration stops as soon as the streaming error estimate meets it, with the
// same N=1000 as its TOTAL budget — so a cell that cannot converge (hard
// regimes) pays at most the fixed-N cost, and an easy cell (wide, prob ≈ 1)
// stops after the first wave.
func BenchmarkQuery(b *testing.B) {
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		for _, side := range []int{24, 40} { // n = 576, 1600
			for _, regime := range []string{"excursion", "prefix", "wide"} {
				m, side, regime := m, side, regime
				name := m.String() + "/n=" + itoa(side*side) + "/" + regime
				b.Run(name+"/sweep=f64", func(b *testing.B) {
					benchWarmQuery(b, m, side, regime, 0)
				})
				b.Run(name+"/earlystop=1e-3", func(b *testing.B) {
					benchWarmQuery(b, m, side, regime, 1e-3)
				})
			}
		}
	}
}

// itoa avoids pulling strconv into the benchmark-only file's imports being
// mistaken for production use.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
