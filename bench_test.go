// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// EXPERIMENTS.md). Each benchmark exercises the same code path as the
// corresponding experiment at a laptop-sized workload; the cmd/figures tool
// runs the full sweeps and prints the tables.
package parmvn

import (
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/cov"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/excursion"
	"repro/internal/figures"
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

// benchGrid builds the tiles of sigma's layout without factoring them, sigma
// read in place as MVNProbCov reads an explicit Σ: the dense layout, or the
// TLR layout at tol > 0 (the pmvn_init compression the paper leaves untimed).
func benchGrid(sigma *linalg.Matrix, ts int, tol float64) *engine.Grid {
	g := engine.NewGrid(sigma.Rows, ts)
	fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	engine.Assemble(g, benchLayout(tol).EntryAssembler(g, fill, true))
	return g
}

// benchLayout is the session's preset for the dense layout (tol = 0) or the
// TLR layout at accuracy tol > 0.
func benchLayout(tol float64) engine.Policy {
	if tol > 0 {
		return engine.Policy{Tol: tol, RankFrac: 0.5}
	}
	return engine.Policy{Band: math.MaxInt}
}

// benchFactor factorizes the tiles of a benchGrid layout on rt, handed to the
// graph as they stand.
func benchFactor(b *testing.B, rt taskrt.Submitter, pre *engine.Grid, tol float64) *mvn.Factor {
	b.Helper()
	g := engine.NewGrid(pre.N, pre.TS)
	if err := engine.PotrfStream(rt, g, &engine.Assembler{Tile: pre.At, Policy: benchLayout(tol)}); err != nil {
		b.Fatal(err)
	}
	return mvn.NewFactor(g)
}

// detectOnce is one confidence-region detection the way Session.DetectRegion
// makes it: marginal ordering, the correlation matrix gathered in that
// ordering, one factorization (dense, or TLR at tlrTol > 0) and one
// integration that yields every prefix probability.
func detectOnce(b *testing.B, rt *taskrt.Runtime, corr *linalg.Matrix, mean, sd []float64, u, conf float64, ts int, tlrTol float64) []int {
	b.Helper()
	plan, err := excursion.NewPlan(mean, sd, u)
	if err != nil {
		b.Fatal(err)
	}
	f := benchFactor(b, rt, benchGrid(plan.Correlation(corr.Col, nil), ts, tlrTol), tlrTol)
	c, err := plan.Integrate(rt, f, mvn.Options{N: 1000})
	if err != nil {
		b.Fatal(err)
	}
	return c.Region(conf)
}

// BenchmarkFig1CRD is Figure 1's unit of work: one confidence-region
// detection on a posterior-like field, dense factorization.
func BenchmarkFig1CRD(b *testing.B) {
	sigma := benchCorr(16) // n=256
	corr, sd := excursion.CorrelationFromCovariance(sigma)
	mean := make([]float64, 256)
	for i := range mean {
		mean[i] = 2.2 - 0.01*float64(i)
	}
	rt := taskrt.New(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg := detectOnce(b, rt, corr, mean, sd, 0, 0.9, 64, 0); len(reg) == 0 {
			b.Fatal("empty region")
		}
	}
}

// windProblem is the wind application's detection problem: the standardized
// synthetic Saudi dataset and the generating Matérn correlation.
func windProblem(b *testing.B) (corr *linalg.Matrix, mean, sd []float64) {
	b.Helper()
	ds, err := datagen.GenerateWind(datagen.WindConfig{Nx: 14, Ny: 12, Days: 60, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	_, mean, sd = ds.Standardize(40)
	g := geo.RegularGrid(14, 12)
	return cov.Matrix(g, &cov.Nugget{Kernel: cov.NewMatern(1, 0.12, 1.43391), Tau2: 1e-6}), mean, sd
}

// BenchmarkFig2Wind is the wind application's unit of work: detect the
// 4 m/s 95% region (dense).
func BenchmarkFig2Wind(b *testing.B) {
	corr, mean, sd := windProblem(b)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detectOnce(b, rt, corr, mean, sd, 4.0, 0.95, 42, 0)
	}
}

// BenchmarkFig3DenseTLRDiff measures the TLR side of the wind comparison:
// the same detection through a TLR factorization at the paper's 1e-4
// accuracy.
func BenchmarkFig3DenseTLRDiff(b *testing.B) {
	corr, mean, sd := windProblem(b)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detectOnce(b, rt, corr, mean, sd, 4.0, 0.95, 42, 1e-4)
	}
}

// oneMVN runs Figure 4's unit of work: Cholesky + one PMVN integration.
func oneMVN(b *testing.B, side, qmcN int, useTLR bool) {
	b.Helper()
	sigma := benchCorr(side)
	n := side * side
	a, up := benchLimits(n, -0.5)
	ts := max(25, n/10)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if useTLR {
			b.StopTimer() // compression = pmvn_init, untimed as in the paper
			pre := benchGrid(sigma, ts, 1e-3)
			b.StartTimer()
			mvn.PMVN(rt, benchFactor(b, rt, pre, 1e-3), a, up, mvn.Options{N: qmcN})
		} else {
			mvn.PMVN(rt, benchFactor(b, rt, benchGrid(sigma, ts, 0), 0), a, up, mvn.Options{N: qmcN})
		}
	}
}

// BenchmarkFig4 sweeps the Figure 4 grid at bench scale: dimension ×
// QMC size × method.
func BenchmarkFig4(b *testing.B) {
	for _, side := range []int{20, 30} {
		for _, qn := range []int{100, 1000} {
			for _, method := range []string{"dense", "tlr"} {
				name := "n" + strconv.Itoa(side*side) + "/N" + strconv.Itoa(qn) + "/" + method
				b.Run(name, func(b *testing.B) {
					oneMVN(b, side, qn, method == "tlr")
				})
			}
		}
	}
}

// BenchmarkTable2Speedup reports the TLR-over-dense speedup of one MVN
// integration as a custom metric (the paper's Table II entry).
func BenchmarkTable2Speedup(b *testing.B) {
	side, qn := 30, 1000
	sigma := benchCorr(side)
	n := side * side
	a, up := benchLimits(n, -0.5)
	ts := n / 10
	rt := taskrt.New(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseSec := benchSeconds(func() {
			mvn.PMVN(rt, benchFactor(b, rt, benchGrid(sigma, ts, 0), 0), a, up, mvn.Options{N: qn})
		})
		pre := benchGrid(sigma, ts, 1e-3)
		tlrSec := benchSeconds(func() {
			mvn.PMVN(rt, benchFactor(b, rt, pre, 1e-3), a, up, mvn.Options{N: qn})
		})
		b.ReportMetric(denseSec/tlrSec, "speedupX")
	}
}

// BenchmarkFig5Compression measures the TLR compression of a 20×20-tile
// covariance at accuracy 1e-3 (the matrix behind the rank maps).
func BenchmarkFig5Compression(b *testing.B) {
	sigma := benchCorr(40) // 1600², ts=80: 20×20 tiles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := benchGrid(sigma, 80, 1e-3); g.Mix().MaxRank == 0 {
			b.Fatal("no compression")
		}
	}
}

// BenchmarkFig6MCValidation times the Monte Carlo validation pass.
func BenchmarkFig6MCValidation(b *testing.B) {
	sigma := benchCorr(20)
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		b.Fatal(err)
	}
	n := 400
	mean := make([]float64, n)
	sd := make([]float64, n)
	region := make([]int, 40)
	for i := range sd {
		sd[i] = 1
		mean[i] = 0.5
	}
	for i := range region {
		region[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		excursion.MCValidate(region, mean, sd, 0, l, 2000, rng)
	}
}

// BenchmarkFigureHarnessFig7 runs the full Figure 7 harness (quick mode) —
// the slowest always-on path of cmd/figures.
func BenchmarkFigureHarnessFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig7(io.Discard, figures.Config{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
