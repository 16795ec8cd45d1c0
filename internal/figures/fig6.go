package figures

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/excursion"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// Fig6Row is one timing of the MC validation process.
type Fig6Row struct {
	Dim     int
	Samples int
	Seconds float64
	PHat    float64
}

// Fig6 reproduces the MC-validation cost figure (paper Figure 6): the wall
// time of the Monte Carlo validation algorithm across problem dimensions.
// As the paper notes, this validation is not part of the detection
// algorithm itself; its cost is reported for completeness.
func Fig6(w io.Writer, cfg Config) ([]Fig6Row, error) {
	sides := []int{15, 20, 25}
	samples := 5000
	if !cfg.Quick {
		sides = []int{20, 30, 40}
		samples = 50000
	}
	rt := taskrt.New(cfg.workers())
	defer rt.Shutdown()
	var rows []Fig6Row
	fmt.Fprintf(w, "Figure 6: MC validation cost (N=%d samples)\n", samples)
	fmt.Fprintf(w, "%8s %10s %12s %10s\n", "dim", "samples", "seconds", "p-hat")
	for _, side := range sides {
		_, sigma := exponentialCorrelation(side, 0.1)
		lCorr, err := linalg.CholeskyTasks(rt, sigma)
		if err != nil {
			return nil, err
		}
		n := side * side
		mean := make([]float64, n)
		sd := make([]float64, n)
		for i := range sd {
			sd[i] = 1
			mean[i] = 0.5 // uniformly elevated field
		}
		// Validate a fixed-size region: the top decile of locations.
		region := make([]int, n/10)
		for i := range region {
			region[i] = i
		}
		rng := rand.New(rand.NewSource(3))
		var phat float64
		sec := timeIt(func() {
			phat = excursion.MCValidate(region, mean, sd, 0.0, lCorr, samples, rng)
		})
		row := Fig6Row{Dim: n, Samples: samples, Seconds: sec, PHat: phat}
		rows = append(rows, row)
		fmt.Fprintf(w, "%8d %10d %12.3f %10.4f\n", row.Dim, row.Samples, row.Seconds, row.PHat)
	}
	return rows, nil
}
