package engine

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Assembler builds tiles on demand for the factorization. Tile must return a
// valid tile for (i,j), j ≤ i, each (i,j) once, with every diagonal tile
// dense float64 (the engine's pivot representation) and every tile inside
// Policy's band dense; it runs on worker goroutines as tasks of the
// factorization graph, so it must be safe for concurrent calls on distinct
// (i,j). Policy.EntryAssembler is the engine's one assembler; a hand-built
// one is free to return tiles built earlier (by Assemble, say), and states
// through Policy the band those tiles were built with and the tolerance of
// their recompression.
type Assembler struct {
	Tile func(i, j int) tile.Tile
	// Policy shapes the graph: a tile inside its band takes one GEMM task per
	// panel, one outside it is built and finished in one task (finishTile),
	// whose recompression runs at Policy.Tol.
	Policy Policy
	// verdict, when set, runs once after every strictly-lower tile of column 0
	// is assembled and before any strictly-lower tile of a later column is:
	// an assembler decides there, from column 0, how it builds the rest (the
	// policy's probe verdict). The graph orders it through dedicated handles
	// — one per column-0 tile, so those assemblies stay concurrent — and
	// every worker count, and Assemble, sees the same verdict.
	verdict func()
}

// PotrfStream is the engine's one factorization: the Cholesky factor of the
// SPD matrix the assembler defines, as one task graph, the tile Cholesky,
// whatever each tile's representation —
//
//	POTRF(T[k][k])
//	TRSM(T[k][k], T[i][k])            i > k
//	SYRK(T[i][k], T[i][i])            i > k
//	GEMM(T[i][k], T[j][k], T[i][j])   i > j > k, T[i][j] inside the band
//	GEMM(T[i][·], T[j][·], T[i][j])   i > j > 0, once, T[i][j] off the band
//
// with critical-path (panel-first) priorities as StarPU heteroprio-style
// schedulers use. The matrix is never materialized up front: each tile is
// built by a task, ordered by a Write dependency before the graph first reads
// it, directly in the representation the assembler chooses. A tile inside
// the band, or in column 0, has an assemble task of its own; an off-band tile
// past column 0 is built inside the one task that applies its Schur updates
// (finishTile). Submission is windowed, so the live footprint is the factor
// in those representations + O(window·NT²) task descriptors — the out-of-core
// shape that carries n ≥ 25k. Errors (non-positive-definite pivots) propagate
// through the submitter's SubmitErr/Err scope. The grid must be empty
// (NewGrid) and is owned by the engine afterwards: its dense tiles draw from
// the workspace pool.
func PotrfStream(rt taskrt.Submitter, g *Grid, asm *Assembler) error {
	if asm == nil || asm.Tile == nil {
		return fmt.Errorf("engine: PotrfStream requires an assembler")
	}
	return potrf(rt, g, asm)
}

// PivotError reports the diagonal tile (K,K) whose Cholesky met a
// non-positive pivot; it unwraps to the in-tile failure, which wraps
// linalg.ErrNotPositiveDefinite. The failed pivot was computed from the
// leading (K+1)×(K+1) tiles alone.
type PivotError struct {
	K   int
	Err error
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("engine: diagonal tile (%d,%d): %v", e.K, e.K, e.Err)
}

func (e *PivotError) Unwrap() error { return e.Err }

// potrf builds PotrfStream's task graph. Kernel dispatch happens at
// execution time — closures read the grid when they run — because assembly
// decides tile representations after submission; the handle dependencies
// make those reads race-free.
func potrf(rt taskrt.Submitter, g *Grid, asm *Assembler) error {
	nt := g.NT
	if nt > maxTileRows {
		return &SizeError{N: g.N, TS: g.TS, NT: nt}
	}
	// Windowed submission: bound the in-flight graph to ~window panels of
	// tasks. The master blocks in Submit until tasks retire; STF dependencies
	// only point backward in submission order, so the in-flight prefix can
	// always run to completion and the throttle cannot deadlock.
	sub := taskrt.NewThrottle(rt, max(window*nt*nt, minWindowTasks))

	h := make([][]*taskrt.Handle, nt)
	for i := 0; i < nt; i++ {
		h[i] = make([]*taskrt.Handle, i+1)
		for j := 0; j <= i; j++ {
			h[i][j] = sub.NewHandle("T(%d,%d)", i, j)
		}
	}
	pol := asm.Policy

	// Assembly bookkeeping: ensure(i,j) submits the tile's assemble task
	// exactly once, before the first factorization task that touches it.
	// Column-0 handles (ch) and the verdict handle (vh) order the verdict
	// after column 0's assemblies and every later column's after the verdict;
	// verdictDep adds that ordering to an off-band tile's task.
	assembled := make([][]bool, nt)
	for i := range assembled {
		assembled[i] = make([]bool, i+1)
	}
	var ch []*taskrt.Handle
	var vh *taskrt.Handle
	if asm.verdict != nil {
		ch = make([]*taskrt.Handle, nt)
		for i := 1; i < nt; i++ {
			ch[i] = sub.NewHandle("C(%d)", i)
		}
		vh = sub.NewHandle("V")
	}
	verdictDep := func(deps []taskrt.Dep, i, j int) []taskrt.Dep {
		switch {
		case vh == nil:
		case j == 0:
			deps = append(deps, taskrt.Write(ch[i]))
		default:
			deps = append(deps, taskrt.Read(vh))
		}
		return deps
	}
	ensure := func(i, j int) {
		if assembled[i][j] || j > 0 && pol.offBand(i, j) {
			// An off-band tile past column 0 is built in its finishTile task.
			return
		}
		assembled[i][j] = true
		deps, prio := []taskrt.Dep{taskrt.Write(h[i][j])}, 3*nt+2
		if i != j && pol.offBand(i, j) {
			deps, prio = verdictDep(deps, i, j), 3*nt+1
		}
		sub.Submit("assemble", prio, func() {
			t := asm.Tile(i, j)
			if lr, ok := t.(*tile.LowRank); ok {
				// Column 0 receives no update: its factors move off the pool
				// to their exact size now.
				t = exactSize(lr)
			}
			g.Set(i, j, t)
		}, deps...)
	}

	for k := 0; k < nt; k++ {
		k := k
		ensure(k, k)
		sub.SubmitErr("potrf", 3*nt-3*k, func() error {
			dk := g.Diag(k)
			// Large diagonal tiles run the blocked in-tile Cholesky so the
			// bulk of the pivot work is level-3 on the packed kernels.
			var err error
			if dk.Rows > 48 {
				err = linalg.PotrfBlocked(dk, 32)
			} else {
				err = linalg.PotrfUnblocked(dk)
			}
			if err != nil {
				return &PivotError{K: k, Err: err}
			}
			return nil
		}, taskrt.ReadWrite(h[k][k]))

		for i := k + 1; i < nt; i++ {
			i := i
			ensure(i, k)
			sub.Submit("trsm", 3*nt-3*k-1, func() {
				trsmPanel(g, k, i)
			}, taskrt.Read(h[k][k]), taskrt.ReadWrite(h[i][k]))
		}
		if k == 0 && vh != nil {
			// Column 0 is submitted in full; nothing of a later column yet.
			deps := make([]taskrt.Dep, 0, nt)
			for i := 1; i < nt; i++ {
				deps = append(deps, taskrt.Read(ch[i]))
			}
			sub.Submit("verdict", 3*nt+1, asm.verdict, append(deps, taskrt.Write(vh))...)
		}
		for i := k + 1; i < nt; i++ {
			i := i
			ensure(i, i)
			sub.Submit("syrk", 3*nt-3*k-2, func() {
				syrkInto(g.tiles[i][k], g.Diag(i))
			}, taskrt.Read(h[i][k]), taskrt.ReadWrite(h[i][i]))
			for j := max(k+1, i-pol.Band); j < i; j++ { // the band tiles of row i
				j := j
				ensure(i, j)
				sub.Submit("gemm", 3*nt-3*k-2, func() {
					gemmInto(g.tiles[i][k], g.tiles[j][k], g.tiles[i][j])
				}, taskrt.Read(h[i][k]), taskrt.Read(h[j][k]), taskrt.ReadWrite(h[i][j]))
			}
		}
		// Column k+1's Schur complement is complete once this panel's solves
		// are: every off-band tile of it is built here, in one task that
		// reads both operand rows and applies its updates in panel order
		// whatever the worker count, before panel k+1 consumes it.
		for j, i := k+1, k+2; i < nt; i++ {
			i := i
			if !pol.offBand(i, j) {
				continue
			}
			deps := make([]taskrt.Dep, 0, 2*j+4)
			for p := 0; p < j; p++ {
				deps = append(deps, taskrt.Read(h[i][p]), taskrt.Read(h[j][p]))
			}
			deps = verdictDep(append(deps, taskrt.ReadWrite(h[i][j])), i, j)
			sub.Submit("gemm", 3*nt-3*k-2, func() {
				g.finishTile(i, j, asm.Tile(i, j), pol.Tol)
			}, deps...)
		}
	}
	sub.Wait()
	if err := sub.Err(); err != nil {
		return err
	}
	for k := 0; k < nt; k++ {
		g.Diag(k).LowerFromFull()
	}
	return nil
}

// Assemble builds every tile of the empty grid g through asm without
// factoring it, serially, in the order the factorization graph guarantees:
// the diagonal first, then column 0, then — after the assembler's verdict, if
// it has one — every other tile. Its tiles are the ones PotrfStream starts
// from; it is how a layout is inspected (ranks, mix, probes) or built ahead
// of a factorization, as an Assembler returning them.
func Assemble(g *Grid, asm *Assembler) {
	for i := 0; i < g.NT; i++ {
		g.Set(i, i, asm.Tile(i, i))
	}
	for i := 1; i < g.NT; i++ {
		g.Set(i, 0, asm.Tile(i, 0))
	}
	if asm.verdict != nil {
		asm.verdict()
	}
	for i := 2; i < g.NT; i++ {
		for j := 1; j < i; j++ {
			g.Set(i, j, asm.Tile(i, j))
		}
	}
}

// trsmPanel solves panel tile (i,k) against the factored diagonal k in the
// tile's representation at execution time.
func trsmPanel(g *Grid, k, i int) {
	dk := g.Diag(k)
	switch t := g.tiles[i][k].(type) {
	case *tile.DenseF64:
		linalg.TrsmLower(linalg.Right, true, 1, dk, t.D)
	case *tile.LowRank:
		if t.Rank() > 0 {
			linalg.TrsmLower(linalg.Left, false, 1, dk, t.V)
		}
	}
}

// RunFill evaluates one column run of the symmetric matrix being assembled:
// dst[r] = Σ(row0+r, j) for every r < len(dst). It is how every streaming
// assembler reads Σ — a kernel over a geometry evaluates a run in one
// specialised loop (cov.Fill) where an entry evaluator would pay a call per
// element — and, Σ being symmetric, a row run is the same call with the
// roles swapped: Σ(i, col0+c) = fill(dst, col0, i)[c]. It runs on worker
// goroutines and must be safe for concurrent calls.
type RunFill func(dst []float64, row0, j int)

// acaBlock runs ACA on the r×c block at (row0,col0) of the run evaluator: a
// pivot column is one run, a residual row the transposed run.
func acaBlock(r, c, row0, col0 int, fill RunFill, tol float64, maxRank int) (*tile.LowRank, bool) {
	return tile.CompressACAConv(r, c,
		func(dst []float64, i int) { fill(dst, col0, row0+i) },
		func(dst []float64, j int) { fill(dst, row0, col0+j) },
		tol, maxRank)
}

// discard recycles the factors of a low-rank tile nothing will reference: a
// rejected probe's, or a tile finishTile recompressed or densified.
func discard(t *tile.LowRank) {
	putMat(t.U)
	putMat(t.V)
	t.U, t.V = nil, nil
}

// exactSize moves a low-rank tile's pooled factors into allocations of
// exactly their size and recycles the pooled ones. The pool rounds every
// buffer up to a power of two, a third more than the factors of a finished
// TLR grid hold, and a finished tile keeps its factors for the factor's life.
func exactSize(t *tile.LowRank) *tile.LowRank {
	if t.Rank() == 0 {
		return t
	}
	u, v := t.U.Clone(), t.V.Clone()
	discard(t)
	t.U, t.V = u, v
	return t
}

// denseBlock materializes the r×c block at (row0,col0) of the run evaluator
// into a pooled matrix, each column filled in place; the caller putMats it.
func denseBlock(r, c, row0, col0 int, fill RunFill) *linalg.Matrix {
	d := getMat(r, c)
	for j := 0; j < c; j++ {
		fill(d.Col(j), row0, col0+j)
	}
	return d
}
