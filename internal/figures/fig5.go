package figures

import (
	"fmt"
	"io"
)

// Fig5Result holds one rank-distribution map.
type Fig5Result struct {
	Level    string
	N, TS    int
	Ranks    [][]int // Ranks[i][j] for tile (i,j), j < i
	MeanRank float64
	MaxRank  int
	// Histogram buckets the ranks like the paper's legend:
	// [1,5] (6,10] (11,20] (21,50] (51,100] (101,∞)
	Histogram [6]int
}

// Fig5 reproduces the TLR rank-distribution maps (paper Figure 5): compress
// the covariance of each correlation level at accuracy 1e-3 on a 20×20 tile
// grid (the paper's 19600² matrix with 980-tiles, scaled) and report the
// per-tile ranks.
func Fig5(w io.Writer, cfg Config) ([]Fig5Result, error) {
	side := 40 // n=1600, ts=80: a 20×20 tile grid like the paper's
	if !cfg.Quick {
		side = 70 // n=4900, ts=245
	}
	n := side * side
	ts := n / 20
	const tol = 1e-3
	var out []Fig5Result
	for _, lv := range Levels {
		_, sigma := exponentialCorrelation(side, lv.Range)
		g := tlrCompress(sigma, ts, tol)
		res := Fig5Result{Level: lv.Name, N: n, TS: ts, Ranks: g.Ranks(), MaxRank: g.Mix().MaxRank}
		tiles := 0
		for _, row := range res.Ranks {
			for _, r := range row {
				res.Histogram[rankBucket(r)]++
				res.MeanRank += float64(r)
				tiles++
			}
		}
		res.MeanRank /= float64(tiles)
		out = append(out, res)
		fmt.Fprintf(w, "Figure 5 (%s, range %.3f): %d×%d matrix, tile %d, acc %.0e — mean rank %.1f, max %d\n",
			lv.Name, lv.Range, n, n, ts, tol, res.MeanRank, res.MaxRank)
		fmt.Fprintf(w, "buckets [1,5]:%d (5,10]:%d (10,20]:%d (20,50]:%d (50,100]:%d (100,∞):%d\n",
			res.Histogram[0], res.Histogram[1], res.Histogram[2], res.Histogram[3], res.Histogram[4], res.Histogram[5])
		for i := 0; i < g.NT; i++ {
			for j := 0; j <= i; j++ {
				if j == i {
					fmt.Fprintf(w, "%4s", "D")
				} else {
					fmt.Fprintf(w, "%4d", res.Ranks[i][j])
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

func rankBucket(r int) int {
	switch {
	case r <= 5:
		return 0
	case r <= 10:
		return 1
	case r <= 20:
		return 2
	case r <= 50:
		return 3
	case r <= 100:
		return 4
	default:
		return 5
	}
}
