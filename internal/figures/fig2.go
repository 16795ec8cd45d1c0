package figures

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cov"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// Fig2Result summarizes the wind-speed application (paper Figures 2 and 3).
type Fig2Result struct {
	N            int
	RegionDense  []int
	RegionTLR    []int
	Overlap      float64   // Jaccard overlap of the two regions
	LevelDiffs   []float64 // |F_dense − F_TLR| per probability-level bucket
	LevelCenters []float64
	MaxDiff      float64
}

// Fig2 runs the wind-farm siting application end to end on the synthetic
// Saudi wind dataset: standardize the target day, model the field with the
// paper's fitted Matérn smoothness, detect the u = 4 m/s, 95%-confidence
// regions with dense and TLR factorizations, and render the four panels of
// Figure 2 as ASCII maps. The per-level dense-vs-TLR differences form
// Figure 3.
func Fig2(w io.Writer, cfg Config) (*Fig2Result, error) {
	nx, ny, days := 20, 16, 90
	qmcN := 3000
	if !cfg.Quick {
		nx, ny, days = 32, 26, 160
		qmcN = 10000
	}
	const (
		u      = 4.0  // m/s threshold, following Chen et al.
		conf   = 0.95 // paper's confidence level
		tlrTol = 1e-4 // paper's wind-experiment accuracy
	)
	ds, err := datagen.GenerateWind(datagen.WindConfig{Nx: nx, Ny: ny, Days: days, Seed: 11})
	if err != nil {
		return nil, err
	}
	day := days * 2 / 3 // a mid-summer day, standing in for July 15 2015
	_, mean, sd := ds.Standardize(day)
	n := ds.Geom.Len()

	// The standardized field is modeled as a zero-mean, unit-variance
	// Matérn GRF. The paper's ExaGeoStat fit found (1, 0.005069, 1.43391)
	// in lon/lat units; our synthetic generator's truth is Range = 0.12 of
	// the unit square with the same smoothness, so we use the generating
	// correlation — the analogue of a perfectly converged MLE fit.
	corrM := windCorrelation(nx, ny)
	rt := taskrt.New(cfg.workers())
	defer rt.Shutdown()
	ts := max(16, n/10)
	cD, cT, err := detectDenseTLR(rt, corrM, mean, sd, u, ts, tlrTol, qmcN)
	if err != nil {
		return nil, err
	}
	fD, fT := cD.ConfidenceFunction(), cT.ConfidenceFunction()
	regD := cD.Region(conf)
	regT := cT.Region(conf)

	// Panels.
	lo, hi := minMax(ds.Speeds[day])
	fmt.Fprintf(w, "Figure 2a: wind speed on target day (%.1f–%.1f m/s)\n", lo, hi)
	asciiMap(w, ds.Speeds[day], nx, ny, lo, hi)
	pM := cD.MarginalProbs()
	fmt.Fprintf(w, "\nFigure 2b: marginal probability P(wind > %g m/s)\n", u)
	asciiMap(w, pM, nx, ny, 0, 1)
	fmt.Fprintf(w, "\nFigure 2c: confidence region, dense (|E| = %d of %d)\n", len(regD), n)
	asciiMap(w, boolMap(regD, n), nx, ny, 0, 1)
	fmt.Fprintf(w, "\nFigure 2d: confidence region, TLR acc %.0e (|E| = %d of %d)\n", tlrTol, len(regT), n)
	asciiMap(w, boolMap(regT, n), nx, ny, 0, 1)

	// Figure 3: dense-vs-TLR confidence-function differences by level.
	const buckets = 10
	diffSum := make([]float64, buckets)
	diffCount := make([]int, buckets)
	maxDiff := 0.0
	for i := 0; i < n; i++ {
		d := math.Abs(fD[i] - fT[i])
		maxDiff = math.Max(maxDiff, d)
		bi := int(fD[i] * buckets)
		if bi >= buckets {
			bi = buckets - 1
		}
		diffSum[bi] += d
		diffCount[bi]++
	}
	res := &Fig2Result{N: n, RegionDense: regD, RegionTLR: regT, MaxDiff: maxDiff}
	fmt.Fprintf(w, "\nFigure 3: |F_dense − F_TLR| by probability level\n")
	fmt.Fprintf(w, "%-12s %12s %8s\n", "level", "mean-diff", "count")
	for bIdx := 0; bIdx < buckets; bIdx++ {
		center := (float64(bIdx) + 0.5) / buckets
		mean := 0.0
		if diffCount[bIdx] > 0 {
			mean = diffSum[bIdx] / float64(diffCount[bIdx])
		}
		res.LevelCenters = append(res.LevelCenters, center)
		res.LevelDiffs = append(res.LevelDiffs, mean)
		fmt.Fprintf(w, "%-12.2f %12.3e %8d\n", center, mean, diffCount[bIdx])
	}
	fmt.Fprintf(w, "max |F_dense − F_TLR| = %.3e\n", maxDiff)

	// Region overlap (Jaccard).
	inD := map[int]bool{}
	for _, i := range regD {
		inD[i] = true
	}
	inter := 0
	for _, i := range regT {
		if inD[i] {
			inter++
		}
	}
	union := len(regD) + len(regT) - inter
	if union > 0 {
		res.Overlap = float64(inter) / float64(union)
	} else {
		res.Overlap = 1
	}
	fmt.Fprintf(w, "dense/TLR region Jaccard overlap = %.3f\n", res.Overlap)
	return res, nil
}

// windCorrelation builds the Matérn correlation of the standardized wind
// anomaly on the generator's unit grid (the generating model, i.e. a
// perfectly converged MLE fit; smoothness 1.43391 as in the paper).
func windCorrelation(nx, ny int) *linalg.Matrix {
	g := geo.RegularGrid(nx, ny)
	k := cov.NewMatern(1, 0.12, 1.43391)
	return cov.Matrix(g, &cov.Nugget{Kernel: k, Tau2: 1e-6})
}
