// Ablation benchmarks for two design choices of the dense tile Cholesky:
// tile size and worker count.
package parmvn

import (
	"strconv"
	"testing"

	"repro/internal/mvn"
	"repro/internal/taskrt"
)

// BenchmarkAblationTileSize sweeps the tile size of one dense MVN
// integration at n=900, N=500: too-small tiles pay scheduling overhead,
// too-large tiles lose pipeline parallelism.
func BenchmarkAblationTileSize(b *testing.B) {
	sigma := benchCorr(30)
	a, up := benchLimits(900, -0.5)
	for _, ts := range []int{25, 45, 90, 180, 450} {
		b.Run("ts"+strconv.Itoa(ts), func(b *testing.B) {
			rt := taskrt.New(4)
			defer rt.Shutdown()
			for i := 0; i < b.N; i++ {
				mvn.PMVN(rt, benchFactor(b, rt, benchGrid(sigma, ts)), a, up, mvn.Options{N: 500})
			}
		})
	}
}

// BenchmarkAblationWorkers sweeps the worker-pool size of the tiled
// Cholesky (informative on multicore hosts; a single-core host shows the
// scheduling overhead alone).
func BenchmarkAblationWorkers(b *testing.B) {
	sigma := benchCorr(30)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("w"+strconv.Itoa(w), func(b *testing.B) {
			rt := taskrt.New(w)
			defer rt.Shutdown()
			for i := 0; i < b.N; i++ {
				benchFactor(b, rt, benchGrid(sigma, 45))
			}
		})
	}
}
