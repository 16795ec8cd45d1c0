// Package engine is the single tile-Cholesky task-graph builder of the
// repository: one POTRF/TRSM/SYRK/GEMM dependency graph, submitted once,
// whose kernels dispatch over polymorphic tile representations (dense
// float64, dense float32, low rank). The dense (Chameleon-style), TLR
// (HiCMA-style) and adaptive factorizations are layouts of one Grid
// (AssembleDense, AssembleTLR, AssembleAdaptive and their streaming Assembler
// counterparts); the per-tile adaptive representation the paper names as
// future work falls out of mixing representations freely within one grid.
//
// The destination tile decides how its Schur updates arrive. A dense tile is
// updated right-looking, one GEMM task per panel. A low-rank tile is updated
// left-looking: nothing touches it until the panel before its own, then one
// task densifies it, applies every update as a plain GEMM and compresses
// once (finishTile) — where rounding after each update, as HiCMA and the
// paper do, spent half of a TLR factorization in QR and SVD landing each tile
// back on the rank it started from.
//
// For out-of-core-shaped problems the engine also runs in streaming mode
// (PotrfStream): tiles are assembled from a kernel evaluator by per-tile
// tasks fused into the factorization graph, each in the representation its
// assembler chooses — the one decision of a tile's representation the engine
// makes — and submission is windowed so task-descriptor memory stays
// bounded. See stream.go.
package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Grid is a square symmetric tiled matrix holding only its lower triangle,
// each tile in an arbitrary representation. After Potrf it holds the lower
// Cholesky factor in the same per-tile representations.
type Grid struct {
	N, TS, NT int
	tiles     [][]tile.Tile // tiles[i][j] valid for j ≤ i

	probes, probeRejected, probeRejectedEarly atomic.Int32 // see ProbeStats
}

// maxTileRows bounds the tile-count of a grid: beyond it the handle table
// and per-panel task fronts (O(NT²)) no longer fit any plausible host, so
// the engine refuses with a typed error instead of dying on allocation.
const maxTileRows = 1 << 20

// SizeError reports a grid whose tile count overflows what the engine (and
// its windowed scheduler) can cover.
type SizeError struct {
	N, TS, NT int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("engine: grid n=%d ts=%d implies %d tile rows (max %d)", e.N, e.TS, e.NT, maxTileRows)
}

// NewGridChecked returns an empty n×n grid with tile size ts, or a
// *SizeError when n/ts implies a tile count past maxTileRows. The tile
// count is computed without the (n+ts-1) intermediate so n near MaxInt
// cannot overflow.
func NewGridChecked(n, ts int) (*Grid, error) {
	if n < 0 || ts <= 0 {
		return nil, fmt.Errorf("engine: invalid grid n=%d ts=%d", n, ts)
	}
	nt := n / ts
	if n%ts != 0 {
		nt++
	}
	if nt > maxTileRows {
		return nil, &SizeError{N: n, TS: ts, NT: nt}
	}
	g := &Grid{N: n, TS: ts, NT: nt, tiles: make([][]tile.Tile, nt)}
	for i := range g.tiles {
		g.tiles[i] = make([]tile.Tile, i+1)
	}
	return g, nil
}

// NewGrid returns an empty n×n grid with tile size ts; every tile must be
// assigned with Set before factorizing. It panics where NewGridChecked
// errors.
func NewGrid(n, ts int) *Grid {
	g, err := NewGridChecked(n, ts)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// TileRows returns the number of rows of tile row i.
//
//repro:noalloc
func (g *Grid) TileRows(i int) int {
	if i == g.NT-1 {
		if r := g.N - i*g.TS; r > 0 {
			return r
		}
	}
	return min(g.TS, g.N)
}

// Set assigns tile (i,j), j ≤ i.
func (g *Grid) Set(i, j int, t tile.Tile) {
	if j > i || i >= g.NT || i < 0 || j < 0 {
		panic(fmt.Sprintf("engine: tile (%d,%d) outside lower triangle of %d grid", i, j, g.NT))
	}
	g.tiles[i][j] = t
}

// At returns tile (i,j), j ≤ i.
//
//repro:noalloc
func (g *Grid) At(i, j int) tile.Tile { return g.tiles[i][j] }

// Diag returns the dense float64 diagonal tile k; the engine requires
// diagonal tiles in that representation (they carry the Cholesky pivots).
//
//repro:noalloc
func (g *Grid) Diag(k int) *linalg.Matrix {
	d, ok := g.tiles[k][k].(*tile.DenseF64)
	if !ok {
		//repro:alloc-ok representation-violation panic path
		panic(fmt.Sprintf("engine: diagonal tile %d is not dense float64", k))
	}
	return d.D
}

// Mix counts the tiles of the lower triangle by representation — the
// footprint report behind the adaptive policy.
type Mix struct {
	Dense64, Dense32, LowRank int
	MaxRank                   int // largest low-rank tile rank
}

// Mix reports the grid's representation mix. Unassigned tiles are skipped,
// so it is meaningful mid-assembly too.
func (g *Grid) Mix() Mix {
	var m Mix
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			switch t := g.tiles[i][j].(type) {
			case *tile.DenseF32:
				m.Dense32++
			case *tile.LowRank:
				m.LowRank++
				if r := t.Rank(); r > m.MaxRank {
					m.MaxRank = r
				}
			case *tile.DenseF64:
				m.Dense64++
			}
		}
	}
	return m
}

// Ranks returns the rank of each strictly-lower tile, Ranks[i][j] for j < i
// (the data behind the paper's Figure 5 rank-distribution maps): a low-rank
// tile's rank, a dense tile's full min(rows, cols).
func (g *Grid) Ranks() [][]int {
	r := make([][]int, g.NT)
	for i := range r {
		r[i] = make([]int, i)
		for j := range r[i] {
			if t, ok := g.tiles[i][j].(*tile.LowRank); ok {
				r[i][j] = t.Rank()
			} else {
				r[i][j] = min(g.TileRows(i), g.TileRows(j))
			}
		}
	}
	return r
}

// Bytes reports the payload bytes of the grid's tiles in their current
// representations (8·r·c dense f64, 4·r·c dense f32, 8·k·(m+n) low rank) —
// the footprint the low-rank and streaming paths exist to shrink.
// Unassigned tiles count zero.
//
//repro:noalloc
func (g *Grid) Bytes() int64 {
	var b int64
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			switch t := g.tiles[i][j].(type) {
			case *tile.DenseF64:
				b += 8 * int64(t.D.Rows) * int64(t.D.Cols)
			case *tile.DenseF32:
				b += 4 * int64(t.D.Rows) * int64(t.D.Cols)
			case *tile.LowRank:
				b += 8 * int64(t.Rank()) * int64(t.M+t.N)
			}
		}
	}
	return b
}

// ProbeStats reports how many off-band tiles the adaptive policy probed during
// assembly, how many of them it rejected, and how many of those before
// tile.CompressWithin's core SVD.
func (g *Grid) ProbeStats() (probed, rejected, early int) {
	return int(g.probes.Load()), int(g.probeRejected.Load()), int(g.probeRejectedEarly.Load())
}

// Config tunes the engine kernels and the factorization's memory policy.
type Config struct {
	// Tol is the tolerance of a trailing low-rank tile's one compression,
	// after all of its Schur updates have been accumulated.
	Tol float64
	// MaxRank caps low-rank tile ranks after that compression (0 = uncapped).
	MaxRank int
	// Window > 0 bounds submission to roughly Window panels of lookahead
	// (Window·NT² in-flight tasks), keeping task-descriptor memory O(Window·NT²)
	// instead of O(NT³). Zero submits the whole graph eagerly (historical
	// behavior).
	Window int
}

// minWindowTasks floors the windowed-submission limit so small grids never
// starve the workers: below this the throttle costs more than it saves.
const minWindowTasks = 1024

// Potrf factorizes the SPD matrix held by the grid in place: one task graph,
// the tile Cholesky, whatever each tile's representation —
//
//	POTRF(T[k][k])
//	TRSM(T[k][k], T[i][k])            i > k
//	SYRK(T[i][k], T[i][i])            i > k
//	GEMM(T[i][k], T[j][k], T[i][j])   i > j > k, T[i][j] dense
//	GEMM(T[i][·], T[j][·], T[i][j])   i > j, once, T[i][j] low rank
//
// with critical-path (panel-first) priorities as StarPU heteroprio-style
// schedulers use. Errors (non-positive-definite pivots) propagate through the
// submitter's SubmitErr/Err scope. Every tile must be assigned; cfg.Window
// applies here too.
func Potrf(rt taskrt.Submitter, g *Grid, cfg Config) error {
	return potrf(rt, g, cfg, nil)
}

// syrkInto applies D ← D − A·Aᵀ for the panel tile a into the dense float64
// diagonal tile d, in the representation-appropriate form.
func syrkInto(a tile.Tile, d *linalg.Matrix) {
	switch a := a.(type) {
	case *tile.DenseF64:
		linalg.Syrk(false, -1, a.D, 1, d)
	case *tile.DenseF32:
		// Diagonal updates run in double precision whatever the operand
		// (the banded mixed-precision semantics: destination chooses).
		w := getMat(a.D.Rows, a.D.Cols)
		a.D.ToDoubleInto(w)
		linalg.Syrk(false, -1, w, 1, d)
		putMat(w)
	case *tile.LowRank:
		k := a.Rank()
		if k == 0 {
			return
		}
		// D ← D − U·(VᵀV)·Uᵀ without densifying the tile.
		s := getMat(k, k)
		linalg.Gemm(true, false, 1, a.V, a.V, 0, s)
		us := getMat(a.M, k)
		linalg.Gemm(false, false, 1, a.U, s, 0, us)
		linalg.Gemm(false, true, -1, us, a.U, 1, d)
		putMat(us)
		putMat(s)
	}
}

// gemmInto applies C ← C − A·Bᵀ into a dense destination, whose precision
// decides the arithmetic; the operands are adapted to it. A low-rank
// destination never gets here: its updates are finishTile's. Operand
// conversions draw from the workspace pools (never the heap), so the tasks
// of a steady-state factorization allocate nothing here.
func gemmInto(a, b, c tile.Tile) {
	switch c := c.(type) {
	case *tile.DenseF64:
		gemmIntoDense64(a, b, c.D)
	case *tile.DenseF32:
		if ad, ok := a.(*tile.DenseF32); ok {
			gemm32RightOf(ad.D, b, c.D)
		} else {
			a32 := to32Pooled(a)
			gemm32RightOf(a32, b, c.D)
			tile.PutMat32(a32)
		}
	case *tile.LowRank:
		panic("engine: per-update GEMM into a low-rank tile")
	}
}

// gemm32RightOf finishes dst −= A·Bᵀ in single precision once the left
// operand is already float32, adapting the right operand.
func gemm32RightOf(a32 *tile.Matrix32, b tile.Tile, dst *tile.Matrix32) {
	if bd, ok := b.(*tile.DenseF32); ok {
		tile.Gemm32(true, -1, a32, bd.D, dst)
		return
	}
	b32 := to32Pooled(b)
	tile.Gemm32(true, -1, a32, b32, dst)
	tile.PutMat32(b32)
}

// gemmIntoDense64 accumulates dst −= A·Bᵀ in double precision, using the
// cheap U·(…)·Vᵀ forms when an operand is low rank.
func gemmIntoDense64(a, b tile.Tile, dst *linalg.Matrix) {
	la, aIsLR := a.(*tile.LowRank)
	lb, bIsLR := b.(*tile.LowRank)
	switch {
	case aIsLR && bIsLR:
		ka, kb := la.Rank(), lb.Rank()
		if ka == 0 || kb == 0 {
			return
		}
		s := getMat(ka, kb)
		linalg.Gemm(true, false, 1, la.V, lb.V, 0, s)
		u2 := getMat(la.M, kb)
		linalg.Gemm(false, false, 1, la.U, s, 0, u2)
		linalg.Gemm(false, true, -1, u2, lb.U, 1, dst)
		putMat(u2)
		putMat(s)
	case aIsLR:
		if la.Rank() == 0 {
			return
		}
		if bd, ok := b.(*tile.DenseF64); ok {
			gemmLRxDense64(la, bd.D, dst)
		} else {
			bd := to64Pooled(b)
			gemmLRxDense64(la, bd, dst)
			putMat(bd)
		}
	case bIsLR:
		if lb.Rank() == 0 {
			return
		}
		if ad, ok := a.(*tile.DenseF64); ok {
			gemmDense64xLR(ad.D, lb, dst)
		} else {
			ad := to64Pooled(a)
			gemmDense64xLR(ad, lb, dst)
			putMat(ad)
		}
	default:
		if ad, ok := a.(*tile.DenseF64); ok {
			gemmDense64RightOf(ad.D, b, dst)
		} else {
			ad := to64Pooled(a)
			gemmDense64RightOf(ad, b, dst)
			putMat(ad)
		}
	}
}

// gemmLRxDense64 applies dst −= U_a·(B·V_a)ᵀ for low-rank A, dense B.
func gemmLRxDense64(la *tile.LowRank, bd, dst *linalg.Matrix) {
	w := getMat(bd.Rows, la.Rank())
	linalg.Gemm(false, false, 1, bd, la.V, 0, w)
	linalg.Gemm(false, true, -1, la.U, w, 1, dst)
	putMat(w)
}

// gemmDense64xLR applies dst −= (A·V_b)·U_bᵀ for dense A, low-rank B.
func gemmDense64xLR(ad *linalg.Matrix, lb *tile.LowRank, dst *linalg.Matrix) {
	w := getMat(ad.Rows, lb.Rank())
	linalg.Gemm(false, false, 1, ad, lb.V, 0, w)
	linalg.Gemm(false, true, -1, w, lb.U, 1, dst)
	putMat(w)
}

// gemmDense64RightOf finishes dst −= A·Bᵀ once the left operand is already
// dense float64, adapting the right operand.
func gemmDense64RightOf(ad *linalg.Matrix, b tile.Tile, dst *linalg.Matrix) {
	if bd, ok := b.(*tile.DenseF64); ok {
		linalg.Gemm(false, true, -1, ad, bd.D, 1, dst)
		return
	}
	bd := to64Pooled(b)
	linalg.Gemm(false, true, -1, ad, bd, 1, dst)
	putMat(bd)
}

// to64Pooled converts a float32 or low-rank tile into a pooled dense float64
// matrix; the caller must putMat it. Dense float64 tiles never route here —
// they pass their matrix through directly, so the hot dense path copies
// nothing.
//
//repro:returns-pooled mat
func to64Pooled(t tile.Tile) *linalg.Matrix {
	switch t := t.(type) {
	case *tile.DenseF32:
		w := getMat(t.D.Rows, t.D.Cols)
		t.D.ToDoubleInto(w)
		return w
	case *tile.LowRank:
		w := getMat(t.M, t.N)
		t.DenseInto(w)
		return w
	}
	panic("engine: to64Pooled on a dense float64 tile")
}

// to32Pooled converts a float64 or low-rank tile into a pooled dense float32
// matrix; the caller must tile.PutMat32 it. Dense float32 tiles never route
// here.
//
//repro:returns-pooled mat32
func to32Pooled(t tile.Tile) *tile.Matrix32 {
	switch t := t.(type) {
	case *tile.DenseF64:
		w := tile.GetMat32(t.D.Rows, t.D.Cols)
		tile.ToSingleInto(t.D, w)
		return w
	case *tile.LowRank:
		d := getMat(t.M, t.N)
		t.DenseInto(d)
		w := tile.GetMat32(t.M, t.N)
		tile.ToSingleInto(d, w)
		putMat(d)
		return w
	}
	panic("engine: to32Pooled on a dense float32 tile")
}

// finishTile is the one compression of a trailing low-rank tile (i,j), run
// between its column's last panel and its own panel solve — the point where
// its Schur complement is complete. pending is the tile as it stood before any
// update: U·Vᵀ is densified into one pooled accumulator, the j updates land
// there as plain GEMMs in panel order, and the result is compressed once, the
// sketch started from the rank the tile came with.
func (g *Grid) finishTile(i, j int, pending *tile.LowRank, cfg Config) {
	acc := getMat(pending.M, pending.N)
	pending.DenseInto(acc)
	for k := 0; k < j; k++ {
		gemmIntoDense64(g.tiles[i][k], g.tiles[j][k], acc)
	}
	lr := tile.CompressNear(acc, cfg.Tol, cfg.MaxRank, pending.Rank())
	putMat(acc)
	discard(pending)
	g.tiles[i][j] = exactSize(lr)
}
