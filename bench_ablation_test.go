// Ablation benchmarks for the design choices DESIGN.md calls out: tile
// size, sample-tile width and TLR rank cap. Custom metrics report accuracy
// alongside time where the trade-off is accuracy-vs-speed.
package parmvn

import (
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// denseOf reassembles a factored grid's lower-triangular factor densely.
func denseOf(g *engine.Grid) *linalg.Matrix {
	l := linalg.NewMatrix(g.N, g.N)
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			var d *linalg.Matrix
			switch t := g.At(i, j).(type) {
			case *tile.DenseF64:
				d = t.D
			case *tile.DenseF32:
				d = t.D.ToDouble()
			case *tile.LowRank:
				d = t.Dense()
			}
			l.View(i*g.TS, j*g.TS, d.Rows, d.Cols).CopyFrom(d)
		}
	}
	return l
}

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
				mvn.PMVN(rt, benchFactor(b, rt, benchGrid(sigma, ts, 0), 0), a, up, mvn.Options{N: 500})
			}
		})
	}
}

// BenchmarkAblationSampleTile sweeps the chains-per-tile-column width of
// the QMC sampling axis.
func BenchmarkAblationSampleTile(b *testing.B) {
	sigma := benchCorr(30)
	a, up := benchLimits(900, -0.5)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	f := benchFactor(b, rt, benchGrid(sigma, 90, 0), 0)
	for _, mc := range []int{25, 100, 250, 1000} {
		b.Run("mc"+strconv.Itoa(mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mvn.PMVN(rt, f, a, up, mvn.Options{N: 1000, SampleTile: mc})
			}
		})
	}
}

// BenchmarkAblationTLRRankCap sweeps the TLR maximum-rank cap, reporting
// the factorization residual as a metric: the accuracy/speed dial the paper
// turns with its compression threshold.
func BenchmarkAblationTLRRankCap(b *testing.B) {
	sigma := benchCorr(30)
	want, err := linalg.Cholesky(sigma)
	if err != nil {
		b.Fatal(err)
	}
	fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	for _, cap := range []int{4, 8, 16, 45} {
		b.Run("cap"+strconv.Itoa(cap), func(b *testing.B) {
			rt := taskrt.New(2)
			defer rt.Shutdown()
			var resid float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pre := engine.NewGrid(900, 90)
				engine.Assemble(pre, engine.TLREntryAssembler(pre, fill, 1e-9, cap, true))
				b.StartTimer()
				g := engine.NewGrid(900, 90)
				if err := engine.PotrfStream(rt, g, engine.Config{Tol: 1e-9, MaxRank: cap}, &engine.Assembler{Tile: pre.At}); err != nil {
					b.Fatal(err)
				}
				resid += denseOf(g).MaxAbsDiff(want)
			}
			b.ReportMetric(resid/float64(b.N), "maxerr")
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
				benchFactor(b, rt, benchGrid(sigma, 45, 0), 0)
			}
		})
	}
}
