package mvn

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/stats"
	"repro/internal/tile"
)

// The single-precision lane sweep. The conditioning state of the chain-
// blocked sweep — the Y grid, the propagation GEMMs and the intra-tile lane
// axpys — dominates the flop count but feeds the Genz step only through the
// shifted limits (limit − acc)/d, whose accuracy requirement is set by the
// QMC error bar, not by double precision. SweepF32 therefore keeps that
// state in float32 (half the memory traffic, the 16×6 f32 micro-kernel
// instead of the 8×6 f64 one) while everything statistical stays f64: the
// QMC points, the special functions, the per-lane probability products and
// the replicate accumulation. The QMC draws w are consumed directly by the
// f64 Φ⁻¹/interval batches, so narrowing them would only add conversion
// passes without saving any arithmetic.
//
// The f32 sweep reads the factor through ShadowF32, a single-precision copy
// of the factor's tiles built lazily on first use and cached on the factor
// (the factor itself stays f64 — it is shared with the f64 path and the
// serving cache). Tiles already stored in f32 (adaptive grids) are
// referenced, not copied.

// sh32Tile is one strictly-lower shadow tile: dense d, or the low-rank pair
// u·vᵀ (all nil for a rank-0 tile, whose application is a no-op).
type sh32Tile struct {
	d, u, v *tile.Matrix32
}

// apply computes dst = alpha·y·Lᵀ + beta·dst (beta ∈ {0,1}) for the shadow
// tile, the f32 mirror of Factor.ApplyOffDiagLanes. Gemm32 only
// accumulates, so beta = 0 is a clear-then-accumulate.
//repro:noalloc
func (t *sh32Tile) apply(alpha float32, y *tile.Matrix32, beta float32, dst *tile.Matrix32) {
	if beta == 0 {
		clear(dst.Data)
	}
	switch {
	case t.d != nil:
		tile.Gemm32(true, alpha, y, t.d, dst)
	case t.u != nil:
		k := t.u.Cols
		w := tile.GetMat32Zero(y.Rows, k)
		tile.Gemm32(false, 1, y, t.v, w)
		tile.Gemm32(true, alpha, w, t.u, dst)
		tile.PutMat32(w)
	}
}

// ShadowF32 is the single-precision shadow of a factor: packed f32 diagonal
// lower triangles (same row-major packing qmcKernelLanes builds per call)
// and the strictly-lower tiles in their cheapest f32 representation.
type ShadowF32 struct {
	diag [][]float32 // diag[r]: m*m buffer, row i at [i*m : i*m+i+1]
	off  [][]sh32Tile
}

// shadowBox caches a lazily-built ShadowF32 on a factor: the warm-path load
// is one atomic read, the one-time build is mutex-serialized.
type shadowBox struct {
	mu    sync.Mutex
	ready atomic.Bool
	s     *ShadowF32
}

// Shadow32 returns the factor's cached single-precision shadow, building it
// on first use (the only allocating step; warm calls are allocation-free).
//repro:noalloc
func (f *Factor) Shadow32() *ShadowF32 {
	if f.sh32.ready.Load() {
		return f.sh32.s
	}
	//repro:alloc-ok one-time f32 shadow build (cold path)
	return f.sh32.build(f)
}

func (b *shadowBox) build(f *Factor) *ShadowF32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready.Load() {
		b.s = newShadowF32(f)
		b.ready.Store(true)
	}
	return b.s
}

// newShadowF32 packs the diagonal triangles and converts every
// strictly-lower tile; tiles the layout already stores in f32 are shared with
// the grid, not copied.
func newShadowF32(f *Factor) *ShadowF32 {
	nt := f.NT()
	s := &ShadowF32{diag: make([][]float32, nt), off: make([][]sh32Tile, nt)}
	for r := 0; r < nt; r++ {
		lkk := f.Diag(r)
		m := lkk.Rows
		buf := make([]float32, m*m)
		for i := 0; i < m; i++ {
			ri := buf[i*m : i*m+i+1]
			for t := 0; t <= i; t++ {
				ri[t] = float32(lkk.At(i, t))
			}
		}
		s.diag[r] = buf
		s.off[r] = make([]sh32Tile, r)
		for j := 0; j < r; j++ {
			switch t := f.G.At(r, j).(type) {
			case *tile.DenseF64:
				s.off[r][j] = sh32Tile{d: tile.ToSingle(t.D)}
			case *tile.LowRank:
				if t.Rank() > 0 { // a rank-0 tile stays the zero sh32Tile
					s.off[r][j] = sh32Tile{u: tile.ToSingle(t.U), v: tile.ToSingle(t.V)}
				}
			case *tile.DenseF32:
				s.off[r][j] = sh32Tile{d: t.D}
			}
		}
	}
	return s
}

// narrow32 narrows one lane vector of conditioning values into the f32 Y
// grid.
//repro:noalloc
func narrow32(dst []float32, src []float64) {
	for l, v := range src {
		dst[l] = float32(v)
	}
}

// sweepColumn32 is sweepColumn with float32 conditioning state: the Y grid,
// the propagation accumulators and the intra-tile axpys are f32; the QMC
// draws, special functions and probability products stay f64. Structure and
// fix-up semantics mirror sweepColumn exactly — see the comments there.
//repro:noalloc
func sweepColumn32(f *Factor, sh *ShadowF32, a, b []float64, src *blockSource, kOff, mc int, nu float64) float64 {
	ts := f.TS()
	nt := (len(a) + ts - 1) / ts // a, b are trimmed: see trimFree
	yAll := tile.GetMat32(mc, f.N())
	acc32 := tile.GetVec32(mc)
	p := linalg.GetVec(mc)
	for l := range p {
		p[l] = 1
	}
	ws, wsBuf := getLaneWS(mc)
	d0Base := 0
	var s []float64
	if nu > 0 {
		d0Base = 1
		s = linalg.GetVec(mc)
		w0 := linalg.GetMat(mc, 1)
		src.fill(w0, kOff, 0)
		for l, w := range w0.Col(0) {
			s[l] = chiScale(w, nu)
		}
		linalg.PutMat(w0)
	}

	alive := mc
	for r := 0; r < nt && alive > 0; r++ {
		row0 := r * ts
		rows := min(f.TileRows(r), len(a)-row0)
		yT := tile.GetMat32View(yAll, row0, rows)
		rT := linalg.GetMat(mc, rows)
		src.fill(rT, kOff, d0Base+row0)
		if freeSpan(a, b, row0, rows) {
			// Unconstrained tile: y = Φ⁻¹(w) column by column through the f64
			// staging vector (ws.acc is free outside the kernel), narrowed
			// into the f32 grid.
			for d := 0; d < rows; d++ {
				stats.PhiInvBatch(rT.Col(d), ws.acc)
				clampFreeY(ws.acc)
				narrow32(yT.Col(d), ws.acc)
			}
			linalg.PutMat(rT)
			tile.PutMat32View(yT)
			continue
		}
		var cond *tile.Matrix32
		if r > 0 {
			cond = tile.GetMat32(mc, f.TileRows(r))
			for t := 0; t < r; t++ {
				yPrev := tile.GetMat32View(yAll, t*ts, f.TileRows(t))
				beta := float32(1)
				if t == 0 {
					beta = 0
				}
				sh.off[r][t].apply(1, yPrev, beta, cond)
				tile.PutMat32View(yPrev)
			}
		}
		alive = qmcKernelLanes32(sh.diag[r], f.TileRows(r), rT, cond, yT, a, b, row0, s, p, ws, acc32, alive)
		tile.PutMat32(cond)
		linalg.PutMat(rT)
		tile.PutMat32View(yT)
	}

	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if s != nil {
		linalg.PutVec(s)
	}
	linalg.PutVec(wsBuf)
	linalg.PutVec(p)
	tile.PutVec32(acc32)
	tile.PutMat32(yAll)
	return sum
}

// qmcKernelLanes32 is qmcKernelLanes over the f32 grid, without its
// sub-blocking: the packed diagonal (row stride m) arrives pre-converted from
// the shadow, the conditioning accumulation runs in f32 (Axpy32 lanes) over
// the rT.Cols rows the trimmed limits reach, and each row's shifted limits
// widen the f32 sums back to f64 for the batched Genz step. ws.acc serves as the f64 staging
// column for Φ⁻¹ output before narrowing; acc32 is the zero-conditioning
// accumulator for the first tile.
//repro:noalloc
func qmcKernelLanes32(packed []float32, m int, rT *linalg.Matrix, cond, yT *tile.Matrix32, a, b []float64, row0 int, s, p []float64, ws laneWS, acc32 []float32, alive int) int {
	mc := len(p)
	y64 := ws.acc
	for i := 0; i < rT.Cols && alive > 0; i++ {
		yCol := yT.Col(i)
		wCol := rT.Col(i)
		av, bv := a[row0+i], b[row0+i]
		if math.IsInf(av, -1) && math.IsInf(bv, 1) {
			stats.PhiInvBatch(wCol, y64)
			clampFreeY(y64)
			narrow32(yCol, y64)
			continue
		}
		ri := packed[i*m : i*m+i+1]
		acc := acc32
		if cond != nil {
			acc = cond.Col(i)
		} else {
			clear(acc)
		}
		for t := 0; t < i; t++ {
			if c := ri[t]; c != 0 {
				linalg.Axpy32(c, yT.Col(t), acc)
			}
		}
		d := float64(ri[i])
		if 4*alive >= 3*mc {
			aP, bP := ws.aP, ws.bP
			shiftLanes32(aP, av, acc, d, s)
			shiftLanes32(bP, bv, acc, d, s)
			stats.PhiIntervalPhiBatch(aP, bP, ws.dif, ws.da)
			u := ws.u
			for l := 0; l < mc; l++ {
				u[l] = ws.da[l] + wCol[l]*ws.dif[l]
			}
			stats.PhiInvBatch(u, y64)
			for l := 0; l < mc; l++ {
				switch {
				case p[l] == 0:
					yCol[l] = 0
				case ws.dif[l] <= 0:
					yCol[l] = float32(emptyIntervalY(aP[l], bP[l]))
					p[l] = 0
					alive--
				default:
					y := y64[l]
					if math.IsInf(y, 0) || math.IsNaN(y) {
						y = clampTailY(y, aP[l], bP[l])
					}
					yCol[l] = float32(y)
					p[l] *= ws.dif[l]
					if p[l] == 0 {
						alive--
					}
				}
			}
			continue
		}
		for l := 0; l < mc; l++ {
			if p[l] == 0 {
				yCol[l] = 0
				continue
			}
			al, bl := av, bv
			if s != nil {
				al, bl = scaleLimit(av, s[l]), scaleLimit(bv, s[l])
			}
			factor, yi := chainStep(shiftLimit(al, float64(acc[l]), d), shiftLimit(bl, float64(acc[l]), d), wCol[l])
			p[l] *= factor
			yCol[l] = float32(yi)
			if p[l] == 0 {
				alive--
			}
		}
	}
	return alive
}

// shiftLanes32 is shiftLanes over an f32 conditioning accumulator: each
// lane's sum widens to f64 exactly, so the shifted limits carry only the
// f32 rounding already present in the sweep state. ±∞ limits short-circuit
// as in the f64 form (an f32 accumulator that overflowed to ±Inf widens to
// the same infinity and dies through the interval fix-ups).
//repro:noalloc
func shiftLanes32(dst []float64, limit float64, acc []float32, d float64, s []float64) {
	if math.IsInf(limit, 0) {
		for l := range dst {
			dst[l] = limit
		}
		return
	}
	if s == nil {
		for l := range dst {
			dst[l] = (limit - float64(acc[l])) / d
		}
		return
	}
	for l := range dst {
		dst[l] = (limit*s[l] - float64(acc[l])) / d
	}
}
