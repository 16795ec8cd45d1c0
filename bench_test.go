// Helpers for the ablation benchmarks (bench_ablation_test.go): a covariance,
// a box, and the dense layout's tiles built untimed and factorized on a
// runtime.
package parmvn

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/taskrt"
)

// benchCorr builds the medium-correlation exponential covariance on a
// side×side grid.
func benchCorr(side int) *linalg.Matrix {
	g := geo.RegularGrid(side, side)
	return cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: 0.1})
}

func benchLimits(n int, lo float64) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = lo
		b[i] = math.Inf(1)
	}
	return
}

// benchGrid builds the tiles of sigma's dense layout without factoring them,
// sigma read in place as MVNProbCov reads an explicit Σ.
func benchGrid(sigma *linalg.Matrix, ts int) *engine.Grid {
	g := engine.NewGrid(sigma.Rows, ts)
	fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	engine.Assemble(g, engine.Presets[Dense].EntryAssembler(g, fill, true))
	return g
}

// benchFactor factorizes the tiles of a benchGrid layout on rt, handed to the
// graph as they stand.
func benchFactor(b *testing.B, rt taskrt.Submitter, pre *engine.Grid) *mvn.Factor {
	b.Helper()
	g := engine.NewGrid(pre.N, pre.TS)
	if err := engine.PotrfStream(rt, g, &engine.Assembler{Tile: pre.At, Policy: engine.Presets[Dense]}); err != nil {
		b.Fatal(err)
	}
	return mvn.NewFactor(g)
}
