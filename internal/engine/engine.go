// Package engine is the single tile-Cholesky task-graph builder of the
// repository: one POTRF/TRSM/SYRK/GEMM dependency graph whose kernels
// dispatch over polymorphic tile representations (dense float64, low rank).
// There is one factor representation, a Grid, and one assembler,
// Policy.EntryAssembler: the dense (Chameleon-style), TLR (HiCMA-style) and
// adaptive factorizations are presets of the one Policy — a dense band
// around the diagonal, and off it a tile low rank where it compresses at the
// tolerance within the rank limit, dense otherwise. The per-tile adaptive
// representation the paper names as future work falls out of mixing
// representations within one grid.
//
// The band decides how a tile's Schur updates arrive. A band tile is dense
// and updated right-looking, one GEMM task per panel. An off-band tile is
// updated left-looking: nothing touches it until the panel before its own,
// then one task builds it, applies every update in panel order and, if it is
// low rank, compresses once (finishTile) — never past the tolerance: a tile
// that does not meet it within its byte break-even stays dense.
//
// There is one entry, PotrfStream: tiles are assembled from a run evaluator
// (a kernel, or a Σ in memory) by tasks fused into the factorization graph,
// each in the representation the policy chooses, and submission is windowed
// so task-descriptor memory stays bounded. Assemble builds the same tiles
// without factoring them. See stream.go.
package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/tile"
)

// Grid is a square symmetric tiled matrix holding only its lower triangle,
// each tile in an arbitrary representation. After PotrfStream it holds the
// lower Cholesky factor in the representations its assembler chose.
type Grid struct {
	N, TS, NT int
	tiles     [][]tile.Tile // tiles[i][j] valid for j ≤ i

	probes, probeRejected, probeRejectedEarly, probesSkipped atomic.Int32 // see ProbeStats
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

// NewGrid returns an empty n×n grid with tile size ts, for PotrfStream or
// Assemble to fill. It panics where NewGridChecked errors.
func NewGrid(n, ts int) *Grid {
	g, err := NewGridChecked(n, ts)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// TileRows returns the number of rows of tile row i.
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
func (g *Grid) At(i, j int) tile.Tile { return g.tiles[i][j] }

// Diag returns the dense float64 diagonal tile k; the engine requires
// diagonal tiles in that representation (they carry the Cholesky pivots).
func (g *Grid) Diag(k int) *linalg.Matrix {
	d, ok := g.tiles[k][k].(*tile.DenseF64)
	if !ok {
		panic(fmt.Sprintf("engine: diagonal tile %d is not dense float64", k))
	}
	return d.D
}

// Mix counts the tiles of the lower triangle by representation — the
// footprint report behind the adaptive policy.
type Mix struct {
	Dense64, LowRank int
	MaxRank          int // largest low-rank tile rank
}

// Mix reports the grid's representation mix. Unassigned tiles are skipped,
// so it is meaningful mid-assembly too.
func (g *Grid) Mix() Mix {
	var m Mix
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			switch t := g.tiles[i][j].(type) {
			case *tile.LowRank:
				m.LowRank++
				if r := t.Rank(); r > m.MaxRank {
					m.MaxRank = r
				}
			case *tile.DenseF64, *tile.PackedF64:
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
// representations (8·r·c dense, 8·k·(m+n) low rank) —
// the footprint the low-rank and streaming paths exist to shrink.
// Unassigned tiles count zero.
func (g *Grid) Bytes() int64 {
	var b int64
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			switch t := g.tiles[i][j].(type) {
			case *tile.DenseF64, *tile.PackedF64:
				r, c := t.Dims()
				b += 8 * int64(r) * int64(c)
			case *tile.LowRank:
				b += 8 * int64(t.Rank()) * int64(t.M+t.N)
			}
		}
	}
	return b
}

// ProbeStats counts the adaptive policy's off-band decisions during assembly.
type ProbeStats struct {
	// Probed tiles were tested for compressibility; Rejected of them failed,
	// RejectedEarly of those before tile.CompressWithin's core SVD.
	Probed, Rejected, RejectedEarly int
	// Skipped tiles were built dense without a probe: column 0 rejected
	// every one of its own (see Policy).
	Skipped int
}

// ProbeStats reports the grid's adaptive probe counts.
func (g *Grid) ProbeStats() ProbeStats {
	return ProbeStats{
		Probed: int(g.probes.Load()), Rejected: int(g.probeRejected.Load()),
		RejectedEarly: int(g.probeRejectedEarly.Load()), Skipped: int(g.probesSkipped.Load()),
	}
}

// window bounds submission to roughly this many panels of lookahead
// (window·NT² in-flight tasks), keeping task-descriptor memory O(window·NT²)
// instead of the graph's O(NT³).
const window = 2

// minWindowTasks floors the windowed-submission limit so small grids never
// starve the workers: below this the throttle costs more than it saves.
const minWindowTasks = 1024

// syrkInto applies D ← D − A·Aᵀ for the panel tile a into the dense float64
// diagonal tile d, in the representation-appropriate form.
func syrkInto(a tile.Tile, d *linalg.Matrix) {
	switch a := a.(type) {
	case *tile.DenseF64:
		linalg.Syrk(false, -1, a.D, 1, d)
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

// gemmInto applies C ← C − A·Bᵀ into the dense float64 tile c. A low-rank
// destination never gets here: its updates are finishTile's.
func gemmInto(a, b, c tile.Tile) {
	d, ok := c.(*tile.DenseF64)
	if !ok {
		panic("engine: per-update GEMM into a low-rank tile")
	}
	gemmIntoDense64(a, b, d.D)
}

// gemmIntoDense64 accumulates dst −= A·Bᵀ, each operand dense float64 or
// low rank, using the cheap U·(…)·Vᵀ forms when an operand is low rank.
// Scratch draws from the workspace pool (never the heap), so the tasks of a
// steady-state factorization allocate nothing here.
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
		if la.Rank() > 0 {
			gemmLRxDense64(la, b.(*tile.DenseF64).D, dst)
		}
	case bIsLR:
		if lb.Rank() > 0 {
			gemmDense64xLR(a.(*tile.DenseF64).D, lb, dst)
		}
	default:
		linalg.Gemm(false, true, -1, a.(*tile.DenseF64).D, b.(*tile.DenseF64).D, 1, dst)
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

// finishTile builds the off-band tile (i,j), j > 0, from t, its assembled
// form, once its column's last panel has been applied — the point where its
// Schur complement is complete — and before its own panel solve. A dense
// tile takes the j updates as the same gemmInto calls, in panel order, that
// a band tile takes one task each. A low-rank tile is
// densified into one pooled accumulator, the updates land there as plain
// GEMMs in panel order, and the result is compressed once, the sketch started
// from the rank the tile came with — where rounding after each update, as
// HiCMA and the paper do, spent half of a TLR factorization in QR and SVD
// landing each tile back on the rank it started from. The compression may
// use up to the tile's byte break-even; if Tol is not met within it, the
// tile keeps the dense accumulator instead of a truncation.
func (g *Grid) finishTile(i, j int, t tile.Tile, tol float64) {
	pending, ok := t.(*tile.LowRank)
	if !ok {
		for k := 0; k < j; k++ {
			gemmInto(g.tiles[i][k], g.tiles[j][k], t)
		}
		g.tiles[i][j] = t
		return
	}
	acc := getMat(pending.M, pending.N)
	pending.DenseInto(acc)
	for k := 0; k < j; k++ {
		gemmIntoDense64(g.tiles[i][k], g.tiles[j][k], acc)
	}
	lr, met := tile.CompressNear(acc, tol, breakEven(pending.M, pending.N), pending.Rank())
	discard(pending)
	if !met {
		if lr != nil {
			discard(lr)
		}
		g.tiles[i][j] = &tile.DenseF64{D: acc}
		return
	}
	putMat(acc)
	g.tiles[i][j] = exactSize(lr)
}

// breakEven is the largest rank whose factors, k·(m+n) entries, take no more
// room than the m×n tile: half the side of a square tile.
func breakEven(m, n int) int { return m * n / (m + n) }
