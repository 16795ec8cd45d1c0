package figures

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/mvn"
	"repro/internal/taskrt"
)

// fig4Runs is how many times Fig4 times each cell, keeping the fastest.
const fig4Runs = 3

// Fig4Row is one cell of the shared-memory performance sweep.
type Fig4Row struct {
	Dim     int
	QMCSize int
	Method  string // "dense" or "tlr"
	Seconds float64
}

// Fig4 reproduces the shared-memory time-to-solution sweep (paper
// Figure 4): one MVN integration operation (Cholesky factorization + tiled
// QMC integration) across problem dimensions and QMC sample sizes, dense vs
// TLR. The paper sweeps four architectures; on one host the architecture
// axis collapses, but the dense/TLR and dimension/sample-size shapes are
// preserved. TLR compression (pmvn_init in the paper) is excluded from the
// timing, as in the paper. Each cell is the fastest of fig4Runs runs: the
// small cells take ~10 ms, where one scheduler hiccup on a shared host is
// larger than the dense/TLR difference being reported.
func Fig4(w io.Writer, cfg Config) ([]Fig4Row, error) {
	// Table II is read off the largest dimension; below n≈2000 the TLR
	// factorization is overhead-bound and only ties with dense.
	sides := []int{20, 30, 50} // 400, 900, 2500
	qmcSizes := []int{100, 1000}
	if !cfg.Quick {
		sides = []int{20, 30, 40, 50, 70} // up to 4900
		qmcSizes = []int{100, 1000, 10000}
	}
	const (
		corrRange = 0.1 // medium correlation
		tlrTol    = 1e-3
	)
	var rows []Fig4Row
	fmt.Fprintf(w, "Figure 4: one MVN integration, dense vs TLR (medium correlation, TLR acc %.0e)\n", tlrTol)
	fmt.Fprintf(w, "%8s %8s %8s %12s\n", "dim", "QMC-N", "method", "seconds")
	for _, side := range sides {
		n := side * side
		_, sigma := exponentialCorrelation(side, corrRange)
		ts := n / 10
		if ts < 25 {
			ts = 25
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = -0.5
			b[i] = math.Inf(1)
		}
		methods := []string{"dense", "tlr"}
		for _, qn := range qmcSizes {
			rt := taskrt.New(cfg.workers())
			// The runs alternate between the methods, so a slow phase of the
			// host falls on both sides of the comparison.
			best := [2]float64{math.Inf(1), math.Inf(1)}
			for run := 0; run < fig4Runs; run++ {
				for m, method := range methods {
					// A factorization consumes the tiles it is handed, so every
					// TLR run compresses afresh, outside the timed region.
					var pre *engine.Grid
					if method == "tlr" {
						pre = tlrCompress(sigma, ts, tlrTol)
					}
					runtime.GC() // the collection of set-up garbage is not part of the operation
					var err error
					sec := timeIt(func() {
						var f *mvn.Factor
						if pre == nil {
							f, err = factorize(rt, sigma, ts, 0)
						} else {
							f, err = factorCompressed(rt, pre, tlrTol)
						}
						if err == nil {
							mvn.PMVN(rt, f, a, b, mvn.Options{N: qn})
						}
					})
					if err != nil {
						rt.Shutdown()
						return nil, err
					}
					best[m] = math.Min(best[m], sec)
				}
			}
			rt.Shutdown()
			for m, method := range methods {
				row := Fig4Row{Dim: n, QMCSize: qn, Method: method, Seconds: best[m]}
				rows = append(rows, row)
				fmt.Fprintf(w, "%8d %8d %8s %12.3f\n", row.Dim, row.QMCSize, row.Method, row.Seconds)
			}
		}
	}
	return rows, nil
}

// Table2 derives the TLR-vs-dense speedup table (paper Table II) from the
// Figure 4 rows, at the largest dimension of the sweep.
func Table2(w io.Writer, rows []Fig4Row) map[int]float64 {
	maxDim := 0
	for _, r := range rows {
		if r.Dim > maxDim {
			maxDim = r.Dim
		}
	}
	dense := map[int]float64{}
	tlr := map[int]float64{}
	var qmcs []int
	for _, r := range rows {
		if r.Dim != maxDim {
			continue
		}
		switch r.Method {
		case "dense":
			dense[r.QMCSize] = r.Seconds
			qmcs = append(qmcs, r.QMCSize)
		case "tlr":
			tlr[r.QMCSize] = r.Seconds
		}
	}
	speedups := map[int]float64{}
	fmt.Fprintf(w, "Table II: TLR speedup over dense at n=%d\n", maxDim)
	fmt.Fprintf(w, "%8s %10s\n", "QMC-N", "speedup")
	for _, q := range qmcs {
		if tlr[q] > 0 {
			speedups[q] = dense[q] / tlr[q]
			fmt.Fprintf(w, "%8d %9.1fX\n", q, speedups[q])
		}
	}
	return speedups
}
