package figures

import (
	"fmt"
	"io"
)

// Fig7Row is one simulated distributed-memory timing.
type Fig7Row struct {
	Dim      int
	Nodes    int
	Method   string
	CholSec  float64
	PMVNSec  float64
	TotalSec float64
}

// Fig7 reproduces the distributed-memory scaling study (paper Figure 7) on
// the discrete-event Shaheen-II simulator (mvnMakespan), at the paper's exact
// dimensions and node counts: the left panel sweeps 16–128 nodes up to
// n = 360,000; the right panel 64–512 nodes up to n = 760,384. The TLR
// variant accelerates only the Cholesky step, matching the paper's
// distributed implementation.
func Fig7(w io.Writer, cfg Config) ([]Fig7Row, error) {
	type panel struct {
		dims  []int
		nodes []int
	}
	panels := []panel{
		{dims: []int{108900, 187489, 266256, 360000}, nodes: []int{16, 32, 64, 128}},
		{dims: []int{266256, 360000, 435600, 537289, 760384}, nodes: []int{64, 128, 256, 512}},
	}
	if cfg.Quick {
		panels = []panel{
			{dims: []int{108900, 187489}, nodes: []int{16, 64}},
			{dims: []int{266256, 360000}, nodes: []int{128, 512}},
		}
	}
	const (
		tileSize = 980 // the paper's TLR tile size
		qmcN     = 10000
		sampleTS = 500 // chains per tile column; fine enough to keep the QMC
		// chain critical path below the per-node work share
		meanRank  = 145 // the paper's maximum-rank setting, used as mean (conservative)
		propScale = 2.5 // tall-skinny GEMM efficiency (see workload)
	)
	var rows []Fig7Row
	for pi, p := range panels {
		fmt.Fprintf(w, "Figure 7 (panel %d): simulated Cray XC40, tile %d, QMC N=%d\n", pi+1, tileSize, qmcN)
		fmt.Fprintf(w, "%10s %7s %8s %10s %10s %10s\n", "dim", "nodes", "method", "chol-s", "pmvn-s", "total-s")
		for _, nodes := range p.nodes {
			for _, dim := range p.dims {
				for _, method := range []string{"dense", "tlr"} {
					wl := workload{
						N: dim, TileSize: tileSize, QMC: qmcN, SampleTS: sampleTS,
						TLR: method == "tlr", MeanRank: meanRank, PropFlopScale: propScale,
					}
					chol, pmvn := mvnMakespan(shaheenII(nodes), wl)
					row := Fig7Row{Dim: dim, Nodes: nodes, Method: method,
						CholSec: chol, PMVNSec: pmvn, TotalSec: chol + pmvn}
					rows = append(rows, row)
					fmt.Fprintf(w, "%10d %7d %8s %10.1f %10.1f %10.1f\n",
						row.Dim, row.Nodes, row.Method, row.CholSec, row.PMVNSec, row.TotalSec)
				}
			}
		}
	}
	return rows, nil
}

// Table3 derives the per-node-count TLR speedups (paper Table III) from the
// Figure 7 rows, at the largest dimension available per node count.
func Table3(w io.Writer, rows []Fig7Row) map[int]float64 {
	largest := map[int]int{}
	for _, r := range rows {
		if r.Dim > largest[r.Nodes] {
			largest[r.Nodes] = r.Dim
		}
	}
	dense := map[int]float64{}
	tlrT := map[int]float64{}
	cholDense := map[int]float64{}
	cholTLR := map[int]float64{}
	for _, r := range rows {
		if r.Dim != largest[r.Nodes] {
			continue
		}
		if r.Method == "dense" {
			dense[r.Nodes] = r.TotalSec
			cholDense[r.Nodes] = r.CholSec
		} else {
			tlrT[r.Nodes] = r.TotalSec
			cholTLR[r.Nodes] = r.CholSec
		}
	}
	var nodes []int
	for n := range dense {
		nodes = append(nodes, n)
	}
	sortInts(nodes)
	speedups := map[int]float64{}
	fmt.Fprintf(w, "Table III: TLR speedup over dense (simulated, QMC N=10,000)\n")
	fmt.Fprintf(w, "%7s %10s %14s\n", "nodes", "overall", "cholesky-only")
	for _, n := range nodes {
		if tlrT[n] > 0 {
			speedups[n] = dense[n] / tlrT[n]
			fmt.Fprintf(w, "%7d %9.1fX %13.1fX\n", n, speedups[n], cholDense[n]/cholTLR[n])
		}
	}
	return speedups
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
