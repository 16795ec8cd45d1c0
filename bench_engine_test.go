// Benchmarks for the unified factorization engine: the adaptive per-tile
// representation against the uniform TLR layout on the same covariance, each
// measured as one cold factorization plus one MVN query (cache purged, so
// every iteration pays assembly, representation choice and Cholesky).
//
//	go test -bench BenchmarkAdaptiveVsTLR -benchtime 3x
package parmvn

import (
	"math"
	"testing"
)

func engineBenchInputs() ([]Point, KernelSpec, []float64, []float64) {
	locs := Grid(24, 24) // n = 576
	kernel := KernelSpec{Family: "matern", Range: 0.2, Nu: 2.5, Nugget: 0.05}
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = math.Inf(1)
	}
	return locs, kernel, a, b
}

func benchMethod(b *testing.B, method Method) {
	locs, kernel, lo, hi := engineBenchInputs()
	s := NewSession(Config{
		Method: method, TileSize: 48, QMCSize: 500,
		TLRTol: 1e-4,
	})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache().Purge()
		if _, err := s.MVNProb(locs, kernel, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveVsTLR compares the engine's adaptive representation
// policy with the uniform TLR layout (and the dense baseline) end to end.
func BenchmarkAdaptiveVsTLR(b *testing.B) {
	b.Run("Adaptive", func(b *testing.B) { benchMethod(b, MethodAdaptive) })
	b.Run("TLR", func(b *testing.B) { benchMethod(b, TLR) })
	b.Run("Dense", func(b *testing.B) { benchMethod(b, Dense) })
}
