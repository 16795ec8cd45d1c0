// Command windfarm runs the paper's wind-energy application end to end on
// the synthetic Saudi-Arabia wind dataset: it generates the multi-day wind
// record, standardizes the target day, detects the regions with ≥95%
// confidence of exceeding 4 m/s (suitable wind-farm sites), and prints the
// maps for dense and TLR factorizations side by side with timings.
//
// Example:
//
//	windfarm -nx 24 -ny 20 -u 4 -conf 0.95
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/datagen"
)

func main() {
	nx := flag.Int("nx", 20, "grid points in longitude")
	ny := flag.Int("ny", 16, "grid points in latitude")
	days := flag.Int("days", 90, "simulated days")
	u := flag.Float64("u", 4.0, "wind-speed threshold in m/s")
	conf := flag.Float64("conf", 0.95, "confidence level")
	qmc := flag.Int("qmc", 3000, "QMC sample size")
	seed := flag.Int64("seed", 11, "dataset seed")
	workers := flag.Int("workers", 0, "worker goroutines")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "windfarm:", err)
		os.Exit(1)
	}
	ds, err := datagen.GenerateWind(datagen.WindConfig{Nx: *nx, Ny: *ny, Days: *days, Seed: *seed})
	if err != nil {
		die(err)
	}
	day := *days * 2 / 3
	_, mean, sd := ds.Standardize(day)
	n := ds.Geom.Len()
	fmt.Printf("synthetic Saudi wind dataset: %d locations × %d days, target day %d\n", n, *days, day)

	// Model: unit-variance Matérn anomaly with the generator's truth
	// (smoothness 1.43391, as the paper's ExaGeoStat fit).
	locs := parmvn.Grid(*nx, *ny)
	kernel := parmvn.KernelSpec{Family: "matern", Range: 0.12, Nu: 1.43391, Nugget: 1e-6}

	for _, method := range []parmvn.Method{parmvn.Dense, parmvn.TLR} {
		s := parmvn.NewSession(parmvn.Config{
			Method: method, Workers: *workers, TileSize: min(max(16, n/10), n),
			QMCSize: *qmc, TLRTol: 1e-4,
		})
		start := time.Now()
		// DetectRegion works on the standardized field: thresholds are
		// standardized per location through mean/sd, so pass the
		// climatological mean/sd directly with the raw threshold.
		exc, err := detect(s, locs, kernel, mean, sd, *u, *conf)
		if err != nil {
			s.Close()
			die(err)
		}
		elapsed := time.Since(start)
		s.Close()
		fmt.Printf("\n%s: %d suitable wind-farm locations (%.2fs)\n", method, len(exc.Region), elapsed.Seconds())
		mask := exc.InRegion(n)
		for j := *ny - 1; j >= 0; j-- {
			for i := 0; i < *nx; i++ {
				if mask[j*(*nx)+i] {
					fmt.Print("#")
				} else {
					fmt.Print(".")
				}
			}
			fmt.Println()
		}
	}
}

// detect runs CRD for a field whose marginal law at location i is
// N(mean[i], sd[i]²) with the given spatial correlation kernel: the
// correlation goes through the kernel, the marginals through a per-location
// covariance scaling of the limits, which DetectRegionCov handles by
// passing the scaled covariance.
func detect(s *parmvn.Session, locs []parmvn.Point, kernel parmvn.KernelSpec, mean, sd []float64, u, conf float64) (*parmvn.Excursion, error) {
	n := len(locs)
	// Build the covariance Σij = sd_i·sd_j·ρij; DetectRegionCov
	// standardizes internally.
	sigma := make([][]float64, n)
	for i := range sigma {
		sigma[i] = make([]float64, n)
	}
	corr := parmvn.CovarianceMatrix(locs, kernel)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sigma[i][j] = sd[i] * sd[j] * corr[i][j]
		}
	}
	return s.DetectRegionCov(sigma, mean, u, conf, 16)
}
