package main

import (
	"fmt"
	"math"

	parmvn "repro"
)

// sizes holds every dimension a workload uses. The toy column exists only so
// that bench_test.go can run each workload's code end to end in seconds; no
// number it prints means anything.
type sizes struct {
	tile      int // tile size of the factorization workloads
	denseSide int // cold_dense_4k grid side
	tlrSide   int // cold_tlr_6k grid side
	warmSide  int // warm_sweep_4k grid side
	prefix    int // constrained leading coordinates of the prefix box
	coldN     int // QMC samples per replicate, cold workloads
	warmN     int // QMC samples per replicate, warm_sweep_4k
	reps      int // randomized QMC replicates

	crdSide, crdObs, crdTile, crdN, crdNodes int

	serveSide, serveKeys, serveWarm, serveN, serveTile int

	highN, highReps int // the high-N reference
	warmupSide      int // the set-up warm-up operation's grid side
}

var fullSizes = sizes{
	tile: 256, denseSide: 64, tlrSide: 80, warmSide: 64, prefix: 256,
	coldN: 1000, warmN: 500, reps: 3,
	crdSide: 50, crdObs: 625, crdTile: 256, crdN: 1000, crdNodes: 16,
	serveSide: 24, serveKeys: 8, serveWarm: 6, serveN: 1000, serveTile: 64,
	highN: 20000, highReps: 5, warmupSide: 32,
}

var toySizes = sizes{
	tile: 64, denseSide: 16, tlrSide: 16, warmSide: 16, prefix: 64,
	coldN: 200, warmN: 100, reps: 3,
	crdSide: 12, crdObs: 36, crdTile: 48, crdN: 200, crdNodes: 8,
	serveSide: 8, serveKeys: 4, serveWarm: 3, serveN: 200, serveTile: 16,
	highN: 4000, highReps: 5, warmupSide: 8,
}

// family is the covariance every workload but crd_2k and serve_mix's
// range-varied keys uses: smooth enough that off-diagonal tiles compress,
// with a nugget so that the excursion box has probability near 0.1 at
// n=4096 rather than the 1e-9…1e-24 of the old scale runs.
var family = parmvn.KernelSpec{Family: "matern", Nu: 2.5, Range: 0.1, Nugget: 0.1}

// shape is one kind of operation's problem and box: what a reference is
// keyed by. The grid is the side×side unit-square grid; lo/hi apply to the
// first prefix coordinates (all of them when prefix is 0), the rest are
// free. nu > 0 makes it a Student-t probability.
type shape struct {
	key    string
	side   int
	kernel parmvn.KernelSpec
	tile   int
	lo, hi float64
	prefix int
	nu     float64
}

func (s shape) n() int { return s.side * s.side }

// locs is the grid moved by (dx, dy). The kernels are stationary, so the
// covariance — and the true probability — is the same for every offset up
// to rounding, while the location content hash differs: a seeded offset
// gives each operation its own input without giving it its own reference.
func (s shape) locs(dx, dy float64) []parmvn.Point {
	pts := parmvn.Grid(s.side, s.side)
	for i := range pts {
		pts[i].X += dx
		pts[i].Y += dy
	}
	return pts
}

func (s shape) box() (a, b []float64) {
	n := s.n()
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i], b[i] = s.lo, s.hi
		if s.prefix > 0 && i >= s.prefix {
			a[i], b[i] = math.Inf(-1), math.Inf(1)
		}
	}
	return a, b
}

func (s shape) boxString() string {
	str := fmt.Sprintf("a=%g b=%g", s.lo, s.hi)
	if s.prefix > 0 {
		str += fmt.Sprintf(" on the first %d coordinates, rest free", s.prefix)
	}
	if s.nu > 0 {
		str += fmt.Sprintf(", Student-t nu=%g", s.nu)
	}
	return str
}

func excursionShape(side, tile int) shape {
	return shape{key: fmt.Sprintf("excursion/n%d", side*side), side: side, kernel: family,
		tile: tile, lo: -2.0, hi: math.Inf(1)}
}

func wideShape(side, tile int) shape {
	return shape{key: fmt.Sprintf("wide/n%d", side*side), side: side, kernel: family,
		tile: tile, lo: -6, hi: 6}
}

func prefixShape(side, tile, prefix int) shape {
	return shape{key: fmt.Sprintf("prefix%d/n%d", prefix, side*side), side: side, kernel: family,
		tile: tile, lo: -2.0, hi: math.Inf(1), prefix: prefix}
}

// variant is how a shape is integrated: samples per replicate, replicates,
// and an optional relative-error budget (the early-stopping wave path).
type variant struct {
	n, reps int
	maxErr  float64
}

func (v variant) String() string {
	s := fmt.Sprintf("N%dx%d", v.n, v.reps)
	if v.maxErr > 0 {
		s += fmt.Sprintf(",maxerr=%g", v.maxErr)
	}
	return s
}

// config is the session configuration the benchmark uses throughout; only
// the method, tile size, tolerance and sample size vary by workload.
func config(m parmvn.Method, tile int, tol float64, v variant) parmvn.Config {
	return parmvn.Config{Method: m, Workers: workers, TileSize: tile, TLRTol: tol,
		QMCSize: v.n, Replicates: v.reps}
}

// query runs one probability query of the shape at the given locations.
func (s shape) query(sess *parmvn.Session, locs []parmvn.Point, a, b []float64, maxErr float64) (parmvn.Result, error) {
	opts := parmvn.QueryOpts{MaxRelErr: maxErr}
	if s.nu > 0 {
		return sess.MVTProbOpts(locs, s.kernel, s.nu, a, b, opts)
	}
	return sess.MVNProbOpts(locs, s.kernel, a, b, opts)
}
