// Command crd runs confidence-region detection on a synthetic Gaussian
// field (the paper's Algorithm 1) and prints the detected region as an
// ASCII map together with the marginal-probability comparison that
// motivates joint MVN modeling.
//
// Example:
//
//	crd -grid 24 -level strong -u 0.5 -conf 0.95 -method tlr
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/datagen"
)

func main() {
	grid := flag.Int("grid", 20, "grid side (dimension = grid²)")
	level := flag.String("level", "medium", "correlation level: weak, medium, strong")
	u := flag.Float64("u", 0.0, "exceedance threshold")
	conf := flag.Float64("conf", 0.95, "confidence level 1-alpha")
	method := flag.String("method", "dense", "factorization: dense, tlr or adaptive")
	qmc := flag.Int("qmc", 3000, "QMC sample size")
	obs := flag.Float64("obs", 0.25, "fraction of locations observed")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker goroutines")
	flag.Parse()

	m, err := parmvn.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crd:", err)
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "crd:", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewSource(*seed))
	n := (*grid) * (*grid)
	ds, err := datagen.NewSyntheticDataset(*grid, int(*obs*float64(n)), *level, rng)
	if err != nil {
		die(err)
	}

	s := parmvn.NewSession(parmvn.Config{
		Method: m, Workers: *workers, TileSize: max(16, n/8), QMCSize: *qmc, TLRTol: 1e-4,
	})
	defer s.Close()

	// Posterior covariance as rows for the public API.
	sigma := make([][]float64, n)
	for i := range sigma {
		sigma[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			sigma[i][j] = ds.PostCov.At(i, j)
		}
	}
	start := time.Now()
	exc, err := s.DetectRegionCov(sigma, ds.PostMu, *u, *conf, 0)
	if err != nil {
		die(err)
	}
	elapsed := time.Since(start)

	mask := exc.InRegion(n)
	marginal := 0
	for _, p := range exc.Marginal {
		if p >= *conf {
			marginal++
		}
	}
	fmt.Printf("confidence region at u=%g, 1-alpha=%g (%s, %.3fs): %d of %d locations\n",
		*u, *conf, m, elapsed.Seconds(), len(exc.Region), n)
	fmt.Printf("naive marginal region (pM >= %g): %d locations\n\n", *conf, marginal)
	fmt.Println("legend: # in region, + marginal-only, . outside")
	for j := *grid - 1; j >= 0; j-- {
		for i := 0; i < *grid; i++ {
			idx := j*(*grid) + i
			switch {
			case mask[idx]:
				fmt.Print("#")
			case exc.Marginal[idx] >= *conf:
				fmt.Print("+")
			default:
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
}
