package figures

import (
	"container/heap"
	"math"
)

// The distributed-memory timings of Figure 7 and Table III come from a
// discrete-event model of the tiled MVN pipeline on a Cray-XC40-like machine:
// tiles are owned 2D-block-cyclically by nodes, each task executes on the
// node owning its output tile, inter-node tile transfers pay latency plus
// bytes/bandwidth, and every node schedules its tasks over a fixed number of
// cores. It stands in for the paper's Shaheen-II runs, reproducing the
// scaling *shape* from the same task DAG and communication volume.
//
// Matching the paper's distributed implementation, the TLR variant
// accelerates only the Cholesky factorization; the QMC propagation GEMMs
// stay dense ("A and B are non-admissible"), which is why distributed TLR
// speedups (≈1.3–1.8X) are far below the shared-memory ones.

// clusterConfig describes the simulated machine.
type clusterConfig struct {
	Nodes         int
	CoresPerNode  int
	GflopsPerCore float64 // sustained double-precision Gflop/s per core
	LatencySec    float64 // per-message network latency
	BandwidthBps  float64 // per-link bandwidth in bytes/s
}

// shaheenII returns a configuration calibrated to the paper's Cray XC40
// nodes (dual-socket 16-core Haswell @ 2.3 GHz, Aries interconnect).
func shaheenII(nodes int) clusterConfig {
	return clusterConfig{
		Nodes:         nodes,
		CoresPerNode:  32,
		GflopsPerCore: 16, // sustained DGEMM per core
		LatencySec:    1.5e-6,
		BandwidthBps:  8e9,
	}
}

type coreHeap []float64

func (h coreHeap) Len() int           { return len(h) }
func (h coreHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h coreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *coreHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// grid returns a near-square process grid pr×pc = nodes.
func grid(nodes int) (pr, pc int) {
	pr = int(math.Sqrt(float64(nodes)))
	for nodes%pr != 0 {
		pr--
	}
	return pr, nodes / pr
}

// workload describes one MVN problem instance for the simulator.
type workload struct {
	N        int     // problem dimension
	TileSize int     // tile size (the paper's 980-style TLR tiles)
	QMC      int     // QMC sample size
	SampleTS int     // chains per tile column
	TLR      bool    // TLR Cholesky (propagation stays dense)
	MeanRank float64 // mean off-diagonal rank for the TLR kernels
	// PropFlopScale inflates the propagation-GEMM cost to model the lower
	// arithmetic efficiency of tall-skinny GEMMs relative to the square
	// DGEMMs the Gflops rating assumes (1 = peak efficiency; ~2.5 matches
	// the paper's observation that Algorithm 2 outweighs the Cholesky).
	PropFlopScale float64
}

const bytesPerFloat = 8

// machine tracks per-node core availability and computes task finish times
// in submission order (the STF order a dynamic runtime would also respect
// for equal priorities) without materializing the DAG, so paper-scale tile
// counts (nt ≈ 776 → tens of millions of GEMM tasks) simulate in seconds.
type machine struct {
	cfg   clusterConfig
	cores [][]float64 // per node: min-heap of core-free times
	mk    float64
}

func newMachine(cfg clusterConfig) *machine {
	m := &machine{cfg: cfg, cores: make([][]float64, cfg.Nodes)}
	for i := range m.cores {
		m.cores[i] = make([]float64, cfg.CoresPerNode)
	}
	return m
}

// run executes one task on node at the given data-ready time and returns
// its finish time.
func (m *machine) run(node int, flops, ready float64) float64 {
	h := coreHeap(m.cores[node])
	start := math.Max(ready, h[0])
	finish := start + flops/(m.cfg.GflopsPerCore*1e9)
	h[0] = finish
	heap.Fix(&h, 0)
	if finish > m.mk {
		m.mk = finish
	}
	return finish
}

// arrive returns when data produced at time t on node `from` becomes usable
// on node `to`.
func (m *machine) arrive(t float64, from, to int, bytes float64) float64 {
	if from == to || bytes == 0 {
		return t
	}
	return t + m.cfg.LatencySec + bytes/m.cfg.BandwidthBps
}

// mvnMakespan simulates one full MVN integration (Cholesky + tiled QMC
// propagation) on the machine and returns (cholesky seconds, pmvn seconds).
// The DAG is streamed in STF submission order.
func mvnMakespan(cfg clusterConfig, w workload) (cholSec, pmvnSec float64) {
	nt := (w.N + w.TileSize - 1) / w.TileSize
	pr, pc := grid(cfg.Nodes)
	owner := func(i, j int) int { return (i%pr)*pc + j%pc }
	m := float64(w.TileSize)
	tileBytes := m * m * bytesPerFloat
	k := w.MeanRank
	payload := tileBytes
	if w.TLR {
		payload = 2 * m * k * bytesPerFloat
	}
	potrfFlops := m * m * m / 3
	trsmFlops := m * m * m
	syrkFlops := m * m * m
	gemmFlops := 2 * m * m * m
	if w.TLR {
		trsmFlops = m * m * k
		syrkFlops = 2*m*k*k + 2*m*m*k
		// LR×LR product + QR/SVD recompression of the stacked factors
		// (the HiCMA gemm kernel).
		gemmFlops = 22 * m * k * k
	}

	// --- Cholesky ---
	mach := newMachine(cfg)
	diagF := make([]float64, nt) // finish time of the last writer per tile
	lowF := make([][]float64, nt)
	for i := range lowF {
		lowF[i] = make([]float64, i)
	}
	for kk := 0; kk < nt; kk++ {
		okk := owner(kk, kk)
		diagF[kk] = mach.run(okk, potrfFlops, diagF[kk])
		for i := kk + 1; i < nt; i++ {
			oik := owner(i, kk)
			ready := math.Max(lowF[i][kk], mach.arrive(diagF[kk], okk, oik, tileBytes))
			lowF[i][kk] = mach.run(oik, trsmFlops, ready)
		}
		for i := kk + 1; i < nt; i++ {
			oik := owner(i, kk)
			ready := math.Max(diagF[i], mach.arrive(lowF[i][kk], oik, owner(i, i), payload))
			diagF[i] = mach.run(owner(i, i), syrkFlops, ready)
			for j := kk + 1; j < i; j++ {
				oij := owner(i, j)
				ready := math.Max(lowF[i][j],
					math.Max(mach.arrive(lowF[i][kk], oik, oij, payload),
						mach.arrive(lowF[j][kk], owner(j, kk), oij, payload)))
				lowF[i][j] = mach.run(oij, gemmFlops, ready)
			}
		}
	}
	cholSec = mach.mk

	// --- PMVN (propagation always dense, as on the paper's cluster) ---
	mc := w.SampleTS
	if mc <= 0 {
		mc = w.TileSize
	}
	kt := (w.QMC + mc - 1) / mc
	mcF := float64(mc)
	// Per-element QMC kernel cost: the triangular accumulation plus the
	// Φ/Φ⁻¹ evaluations (~60 flops each).
	qmcFlops := m*m*mcF + 120*m*mcF
	propScale := w.PropFlopScale
	if propScale <= 0 {
		propScale = 1
	}
	propFlops := propScale * 2 * 2 * m * m * mcF // A and B dense GEMM updates
	yBytes := m * mcF * bytesPerFloat

	pm := newMachine(cfg)
	yF := make([]float64, kt)
	abF := make([][]float64, nt)
	for j := range abF {
		abF[j] = make([]float64, kt)
	}
	for kcol := 0; kcol < kt; kcol++ {
		yF[kcol] = pm.run(owner(0, kcol), qmcFlops, 0)
	}
	for r := 1; r < nt; r++ {
		for j := r; j < nt; j++ {
			for kcol := 0; kcol < kt; kcol++ {
				oj := owner(j, kcol)
				ready := math.Max(abF[j][kcol], pm.arrive(yF[kcol], owner(r-1, kcol), oj, yBytes))
				abF[j][kcol] = pm.run(oj, propFlops, ready)
			}
		}
		for kcol := 0; kcol < kt; kcol++ {
			yF[kcol] = pm.run(owner(r, kcol), qmcFlops, abF[r][kcol])
		}
	}
	pmvnSec = pm.mk
	return cholSec, pmvnSec
}
