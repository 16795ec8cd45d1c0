package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timeIt runs fn repeatedly for at least minDur and returns the median
// seconds per call over the repetitions.
func timeIt(minDur time.Duration, fn func()) float64 {
	fn() // warm
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < minDur {
		t0 := time.Now()
		fn()
		per = append(per, time.Since(t0).Seconds())
	}
	return median(per)
}

// runProbes measures each layer's kernels alone, on the tile shape and
// tolerance the workloads use, and the memory bandwidth the sweep is
// compared with. They run after the measured phase of a traced run, on
// every workload, so that a layer's rate sits beside the workload numbers
// taken on the same host minutes apart at most.
func runProbes(e *env) {
	ts := e.sz.tile
	dur := 150 * time.Millisecond
	if e.opts.toy {
		dur = 5 * time.Millisecond
	}
	root := e.tr.begin("probes", -1, -1)
	defer e.tr.end(root)

	// The workload geometry and kernel: the TLR grid, Matérn 2.5 + nugget.
	side := e.sz.tlrSide
	g := geo.RegularGrid(side, side)
	var k cov.Kernel = &cov.Nugget{Kernel: cov.NewMatern(1, family.Range, family.Nu), Tau2: family.Nugget}
	blk := linalg.NewMatrix(ts, ts)
	s := timeIt(dur, func() { cov.Block(blk, g, k, ts, 0) })
	e.set("cov.block_mentries_per_s", float64(ts*ts)/s/1e6)

	// BLAS-3 on one tile. Flops: GEMM 2n³, SYRK n³, TRSM n³, POTRF n³/3.
	n3 := float64(ts) * float64(ts) * float64(ts)
	a, b, c := randMatrix(ts, 1), randMatrix(ts, 2), linalg.NewMatrix(ts, ts)
	s = timeIt(dur, func() { linalg.Gemm(false, true, -1, a, b, 1, c) })
	e.set("linalg.gemm_gflops_256", 2*n3/s/1e9)
	s = timeIt(dur, func() { linalg.Syrk(false, -1, a, 1, c) })
	e.set("linalg.syrk_gflops_256", n3/s/1e9)
	spd := spdMatrix(ts)
	l := spd.Clone()
	if err := linalg.PotrfBlocked(l, 64); err != nil {
		panic(err) // spdMatrix is diagonally dominant
	}
	// TRSM and POTRF work in place, so each call starts from a fresh copy;
	// the copy (n² against n³) is inside the timing.
	rhs, work := randMatrix(ts, 3), linalg.NewMatrix(ts, ts)
	s = timeIt(dur, func() {
		work.CopyFrom(rhs)
		linalg.TrsmLower(linalg.Right, true, 1, l, work)
	})
	e.set("linalg.trsm_gflops_256", n3/s/1e9)
	s = timeIt(dur, func() {
		work.CopyFrom(spd)
		if err := linalg.PotrfBlocked(work, 64); err != nil {
			panic(err)
		}
	})
	e.set("linalg.potrf_gflops_256", n3/3/s/1e9)
	// Computed: three n×n float64 operands read or written once over 2n³
	// flops; cache misses are not in it.
	e.set("linalg.gemm_bytes_per_flop", 3*8*float64(ts*ts)/(2*n3))

	// Compression on off-diagonal tiles of the workload covariance, from
	// the neighbour of the diagonal to the far corner.
	tol, maxRank := 1e-6, ts/2
	nt := g.Len() / ts
	var ranks []float64
	var near *tile.LowRank
	for _, ti := range []int{1, 2, nt / 4, nt / 2, nt - 1} {
		if ti < 1 || ti >= nt {
			continue
		}
		cov.Block(blk, g, k, ti*ts, 0)
		lr := tile.Compress(blk, tol, maxRank)
		ranks = append(ranks, float64(lr.Rank()))
		if near == nil {
			near = lr
		}
	}
	if near != nil {
		e.set("tile.mean_rank", mean(ranks))
		e.set("tile.max_rank", quantile(ranks, 1))
		cov.Block(blk, g, k, ts, 0)
		s = timeIt(dur, func() { sink += float64(tile.Compress(blk, tol, maxRank).Rank()) })
		e.set("tile.compress_ms_256", s*1e3)
		entry := func(i, j int) float64 { return k.Cov(g.Dist(ts+i, j)) }
		s = timeIt(dur, func() { sink += float64(tile.CompressACA(ts, ts, entry, tol, maxRank).Rank()) })
		e.set("tile.aca_ms_256", s*1e3)
		// The factorization's low-rank Schur update: add a product of the
		// tile's own rank, then round back to tolerance.
		r := near.Rank()
		u2, v2 := randMatrixRC(ts, r, 4), randMatrixRC(ts, r, 5)
		s = timeIt(dur, func() {
			t := near.Clone()
			t.AddLowRank(-1e-3, u2, v2, tol, maxRank)
			sink += float64(t.Rank())
		})
		e.set("tile.addlowrank_us", s*1e6)
		// The sweep's off-diagonal apply on one lane block: (b·V)·Uᵀ.
		lanes := ts
		bm, cm := randMatrixRC(lanes, ts, 6), linalg.NewMatrix(lanes, ts)
		s = timeIt(dur, func() { near.ApplyRightTrans(-1, bm, 1, cm) })
		e.set("tile.apply_lr_gflops", 2*2*float64(lanes*ts*r)/s/1e9)
	}

	// A dependency chain of empty tasks: what one task costs the scheduler.
	chain := 20000
	if e.opts.toy {
		chain = 500
	}
	rt := taskrt.New(workers)
	h := rt.NewHandle("chain")
	t0 := time.Now()
	for i := 0; i < chain; i++ {
		rt.Submit("empty", 0, func() {}, taskrt.ReadWrite(h))
	}
	rt.Wait()
	e.set("taskrt.empty_tasks_per_s", float64(chain)/time.Since(t0).Seconds())
	rt.Shutdown()

	// One lane block of lattice points over one tile of dimensions.
	gen := qmc.NewRichtmyer(g.Len())
	pts := linalg.NewMatrix(ts, ts)
	s = timeIt(dur, func() { gen.FillBlock(pts, 0, 0) })
	e.set("qmc.fillblock_mpts_per_s", float64(ts*ts)/s/1e6)

	// Special functions in batches of 1000, arguments across the range the
	// sweep produces.
	const batch = 1000
	x, y, dst := make([]float64, batch), make([]float64, batch), make([]float64, batch)
	for i := range x {
		x[i] = -4 + 8*float64(i)/batch
		y[i] = x[i] + 0.5 + float64(i%7)
	}
	s = timeIt(dur, func() { stats.ErfcBatch(x, dst) })
	e.set("stats.erfc_ns_per_elem", s*1e9/batch)
	s = timeIt(dur, func() { stats.PhiIntervalBatch(x, y, dst) })
	e.set("stats.phi_interval_ns_per_elem", s*1e9/batch)
	p := make([]float64, batch)
	for i := range p {
		p[i] = (float64(i) + 0.5) / batch
	}
	s = timeIt(dur, func() { stats.PhiInvBatch(p, dst) })
	e.set("stats.phiinv_ns_per_elem", s*1e9/batch)

	e.set("mem.stream_gbs", streamTriad(e))
}

// streamCap bounds each triad array. Four times the last-level cache is the
// rule, but the reference host reports a 260 MiB L3 shared by its whole
// socket, and faulting in three 1 GiB arrays costs this VM 16 s; 128 MiB is
// 32 times a core's L2 and reads the same 24 GB/s as 1 GiB did.
const streamCap = 128 << 20

// streamTriad measures sustainable memory bandwidth with a[i] = b[i] + s·c[i]
// on both workers. Each array is four times the last-level cache up to
// streamCap; both sizes are printed. Bytes are computed (three arrays touched
// once per pass).
func streamTriad(e *env) float64 {
	llc := lastLevelCacheBytes()
	want := 4 * llc
	per := min(want, streamCap)
	if e.opts.toy {
		per = 4 << 20
	}
	n := int(per / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	pass := func() {
		taskrt.ForEachLimit(workers, workers, func(w int) {
			lo, hi := w*n/workers, (w+1)*n/workers
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
	}
	pass() // faults a in
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pass()
		best = math.Min(best, time.Since(t0).Seconds())
	}
	sink += a[n/2]
	fmt.Fprintf(e.out, "# stream triad arrays=3x%.0fMiB last_level_cache=%.0fMiB four_times_llc=%.0fMiB (bytes computed, best of 3)\n",
		float64(per)/(1<<20), float64(llc)/(1<<20), float64(want)/(1<<20))
	return 3 * 8 * float64(n) / best / 1e9
}

// lastLevelCacheBytes sums the largest-level caches the run's cores see,
// from sysfs; 32 MiB when it cannot be read.
func lastLevelCacheBytes() int64 {
	best, level := int64(0), 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		sz := readTrim(filepath.Join(d, "size"))
		if err1 != nil || sz == "" || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		mult := int64(1)
		switch {
		case strings.HasSuffix(sz, "K"):
			mult, sz = 1<<10, strings.TrimSuffix(sz, "K")
		case strings.HasSuffix(sz, "M"):
			mult, sz = 1<<20, strings.TrimSuffix(sz, "M")
		}
		v, err := strconv.ParseInt(sz, 10, 64)
		if err == nil && lv > level {
			best, level = v*mult, lv
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// randMatrix is an n×n matrix of fixed pseudo-random entries in (−1, 1).
func randMatrix(n int, seed uint64) *linalg.Matrix { return randMatrixRC(n, n, seed) }

func randMatrixRC(r, c int, seed uint64) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range m.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Data[i] = float64(x>>11)/(1<<52) - 1
	}
	return m
}

// spdMatrix is a diagonally dominant symmetric matrix.
func spdMatrix(n int) *linalg.Matrix {
	m := randMatrix(n, 7)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			m.Set(i, j, m.At(j, i))
		}
		m.Set(j, j, float64(2*n))
	}
	return m
}
