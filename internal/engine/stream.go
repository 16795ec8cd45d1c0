package engine

import (
	"fmt"
	"sync"

	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Assembler builds tiles on demand for the streaming factorization. Tile
// must return a valid tile for (i,j), j ≤ i, with every diagonal tile dense
// float64 (the engine's pivot representation); it runs on worker goroutines
// as "assemble" tasks fused into the factorization graph, so it must be
// safe for concurrent calls on distinct (i,j).
type Assembler struct {
	Tile func(i, j int) tile.Tile
	// DiagFirst orders every off-diagonal assembly after its two diagonal
	// blocks' assemblies (for policies that read diagonal norms, like the
	// adaptive f32 test). The ordering runs through dedicated norm handles,
	// not the tile handles, so it observes the assembled — never the
	// factored — diagonal.
	DiagFirst bool
	// offDiag is what the constructor knows of every strictly-lower tile's
	// representation before any has been built; the graph is shaped on it.
	offDiag offDiag
}

// offDiag is a graph builder's advance knowledge of an off-diagonal tile:
// where a low-rank tile's Schur updates go (one accumulate-and-compress
// instead of a task per update) has to be decided at submission.
type offDiag int8

const (
	offUnknown offDiag = iota // decided on the worker that builds the tile
	offDense
	offLowRank
)

// PotrfStream factorizes the SPD matrix defined by the assembler without
// ever materializing it up front: each tile is built by its own task,
// ordered by a Write dependency before the graph first reads it, directly
// in the representation the assembler chooses, which it keeps. Combined with
// cfg.Window the live footprint is the factor in those representations +
// O(Window·NT²) task descriptors — the out-of-core shape that carries
// n ≥ 25k. The grid must be empty (NewGrid) and is owned by the engine
// afterwards: its dense tiles draw from the workspace pool.
func PotrfStream(rt taskrt.Submitter, g *Grid, cfg Config, asm *Assembler) error {
	if asm == nil || asm.Tile == nil {
		return fmt.Errorf("engine: PotrfStream requires an assembler")
	}
	return potrf(rt, g, cfg, asm)
}

// potrf is the single task-graph builder behind Potrf (asm == nil,
// materialized grid) and PotrfStream (tiles assembled on demand). Kernel
// dispatch happens at execution time — closures read the grid when they
// run — because streaming assembly decides tile representations after
// submission; the handle dependencies make those reads race-free.
func potrf(rt taskrt.Submitter, g *Grid, cfg Config, asm *Assembler) error {
	nt := g.NT
	if nt > maxTileRows {
		return &SizeError{N: g.N, TS: g.TS, NT: nt}
	}
	// f32Panel[j]: column j of a materialized grid holds a single-precision
	// tile. Read off the grid here, once: after submission starts the workers
	// replace tiles and the grid is theirs.
	f32Panel := make([]bool, nt)
	if asm == nil {
		for k := 0; k < nt; k++ {
			for j := 0; j <= k; j++ {
				if g.tiles[k][j] == nil {
					return fmt.Errorf("engine: tile (%d,%d) unassigned", k, j)
				}
				if g.tiles[k][j].Kind() == tile.KindDenseF32 {
					f32Panel[j] = true
				}
			}
			if _, ok := g.tiles[k][k].(*tile.DenseF64); !ok {
				return fmt.Errorf("engine: diagonal tile %d must be dense float64, got %s", k, g.tiles[k][k].Kind())
			}
		}
	}

	// Windowed submission: bound the in-flight graph to ~Window panels of
	// tasks. The master blocks in Submit until tasks retire; STF dependencies
	// only point backward in submission order, so the in-flight prefix can
	// always run to completion and the throttle cannot deadlock.
	sub := rt
	if cfg.Window > 0 {
		limit := cfg.Window * nt * nt
		if limit < minWindowTasks {
			limit = minWindowTasks
		}
		sub = taskrt.NewThrottle(rt, limit)
	}

	h := make([][]*taskrt.Handle, nt)
	for i := 0; i < nt; i++ {
		h[i] = make([]*taskrt.Handle, i+1)
		for j := 0; j <= i; j++ {
			h[i][j] = sub.NewHandle("T(%d,%d)", i, j)
		}
	}

	// deferred[i][j] marks a tile that was low rank when the factorization
	// first saw it — here, or in its assemble task: its Schur updates are not
	// applied panel by panel but all at once by finishTile. Every other tile
	// that receives updates is dense and takes one GEMM task per panel. A tile
	// keeps the representation it was assembled in, so the mark records that
	// one decision for the tasks that run after it.
	deferred := make([][]bool, nt)
	for i := range deferred {
		deferred[i] = make([]bool, i)
		if asm == nil {
			for j := range deferred[i] {
				_, deferred[i][j] = g.tiles[i][j].(*tile.LowRank)
			}
		}
	}
	// known is what submission may assume of tile (i,j): the assembler's
	// declaration, or the grid as it was handed in.
	known := func(i, j int) offDiag {
		switch {
		case asm != nil:
			return asm.offDiag
		case deferred[i][j]:
			return offLowRank
		}
		return offDense
	}
	// assemble builds tile (i,j) on a worker. A low-rank tile's factors come
	// off the pool in its power-of-two classes: one no update will replace
	// (column 0) moves to exact size, the others are marked for finishTile.
	assemble := func(i, j int) {
		t := asm.Tile(i, j)
		if lr, ok := t.(*tile.LowRank); ok && j < i {
			if j == 0 {
				t = exactSize(lr)
			} else {
				deferred[i][j] = true
			}
		}
		g.Set(i, j, t)
	}

	// Streaming assembly bookkeeping: ensure(i,j) submits the tile's
	// assemble task exactly once, before the first factorization task that
	// touches it. Norm handles (nh) order adaptive off-diagonal assembly
	// after the diagonal norms without entangling the pivot handles.
	var assembled [][]bool
	var nh []*taskrt.Handle
	var ensure func(i, j int)
	if asm != nil {
		assembled = make([][]bool, nt)
		for i := range assembled {
			assembled[i] = make([]bool, i+1)
		}
		if asm.DiagFirst {
			nh = make([]*taskrt.Handle, nt)
			for i := range nh {
				nh[i] = sub.NewHandle("N(%d)", i)
			}
		}
		ensure = func(i, j int) {
			if assembled[i][j] || asm.offDiag == offLowRank && 0 < j && j < i {
				// A tile known to be low rank with updates to receive is
				// built inside its finishTile task, where its assembly-time
				// factors live for that task only.
				return
			}
			assembled[i][j] = true
			if asm.DiagFirst {
				if i == j {
					sub.Submit("assemble", 3*nt+2, func() { assemble(i, i) },
						taskrt.Write(h[i][i]), taskrt.Write(nh[i]))
					return
				}
				ensure(i, i)
				ensure(j, j)
				sub.Submit("assemble", 3*nt+1, func() { assemble(i, j) },
					taskrt.Write(h[i][j]), taskrt.Read(nh[i]), taskrt.Read(nh[j]))
				return
			}
			sub.Submit("assemble", 3*nt+2, func() { assemble(i, j) }, taskrt.Write(h[i][j]))
		}
	}

	for k := 0; k < nt; k++ {
		k := k
		if asm != nil {
			ensure(k, k)
		}
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
				return fmt.Errorf("engine: diagonal tile (%d,%d): %w", k, k, err)
			}
			return nil
		}, taskrt.ReadWrite(h[k][k]))

		// Single-precision panel tiles solve against a float32 copy of the
		// factored diagonal, materialized lazily at execution time by the
		// first solve that needs it: under streaming assembly the
		// representation of a panel tile is decided on the workers, so
		// submission time cannot know whether the copy will be needed.
		l32 := &lazy32{}
		needFree := f32Panel[k]
		if asm != nil {
			needFree = k+1 < nt
		}
		for i := k + 1; i < nt; i++ {
			i := i
			if asm != nil {
				ensure(i, k)
			}
			sub.Submit("trsm", 3*nt-3*k-1, func() {
				trsmPanel(g, k, i, l32)
			}, taskrt.Read(h[k][k]), taskrt.ReadWrite(h[i][k]))
		}
		if needFree {
			// Runs after every panel solve (they read h[k][k]); recycles the
			// f32 diagonal copy, or no-ops if none was materialized.
			sub.Submit("free32", 3*nt-3*k-1, l32.free, taskrt.ReadWrite(h[k][k]))
		}
		for i := k + 1; i < nt; i++ {
			i := i
			if asm != nil {
				ensure(i, i)
			}
			sub.Submit("syrk", 3*nt-3*k-2, func() {
				syrkInto(g.tiles[i][k], g.Diag(i))
			}, taskrt.Read(h[i][k]), taskrt.ReadWrite(h[i][i]))
			for j := k + 1; j < i; j++ {
				j := j
				if known(i, j) == offLowRank {
					continue
				}
				if asm != nil {
					ensure(i, j)
				}
				sub.Submit("gemm", 3*nt-3*k-2, func() {
					if !deferred[i][j] {
						gemmInto(g.tiles[i][k], g.tiles[j][k], g.tiles[i][j])
					}
				}, taskrt.Read(h[i][k]), taskrt.Read(h[j][k]), taskrt.ReadWrite(h[i][j]))
			}
		}
		// Column k+1's Schur complement is complete once this panel's solves
		// are: every tile of it that ends low rank gets its one compression
		// here, before panel k+1 consumes it. A tile known to be dense has its
		// updates in it and gets no task; any other applies them if it is
		// deferred, reading both operand rows, in panel order whatever the
		// worker count.
		for j, i := k+1, k+2; i < nt; i++ {
			i := i
			rep := known(i, j)
			if rep == offDense {
				continue
			}
			deps := make([]taskrt.Dep, 0, 2*j+1)
			for p := 0; p < j; p++ {
				deps = append(deps, taskrt.Read(h[i][p]), taskrt.Read(h[j][p]))
			}
			build := asm != nil && rep == offLowRank
			sub.Submit("gemm", 3*nt-3*k-2, func() {
				switch {
				case build:
					g.finishTile(i, j, asm.Tile(i, j).(*tile.LowRank), cfg)
				case deferred[i][j]:
					g.finishTile(i, j, g.tiles[i][j].(*tile.LowRank), cfg)
				}
			}, append(deps, taskrt.ReadWrite(h[i][j]))...)
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

// trsmPanel solves panel tile (i,k) against the factored diagonal k in the
// tile's representation at execution time.
func trsmPanel(g *Grid, k, i int, l32 *lazy32) {
	dk := g.Diag(k)
	switch t := g.tiles[i][k].(type) {
	case *tile.DenseF64:
		linalg.TrsmLower(linalg.Right, true, 1, dk, t.D)
	case *tile.LowRank:
		if t.Rank() > 0 {
			linalg.TrsmLower(linalg.Left, false, 1, dk, t.V)
		}
	case *tile.DenseF32:
		tile.TrsmRightLowerTrans32(l32.get(dk), t.D)
	}
}

// lazy32 is the per-panel float32 copy of the factored diagonal, built by
// the first single-precision solve that needs it (sync.Once makes the
// concurrent first touches safe) and recycled by the panel's free32 task,
// which the handle graph orders after every solve.
type lazy32 struct {
	once sync.Once
	d    *tile.Matrix32
}

func (l *lazy32) get(dk *linalg.Matrix) *tile.Matrix32 {
	l.once.Do(func() {
		w := tile.GetMat32(dk.Rows, dk.Cols)
		tile.ToSingleInto(dk, w)
		l.d = w
	})
	return l.d
}

func (l *lazy32) free() {
	if l.d != nil {
		tile.PutMat32(l.d)
		l.d = nil
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

// DenseEntryAssembler streams every tile of the run evaluator densely in
// float64 — the streaming analogue of the dense layout constructor. The
// grid must be the one passed to PotrfStream.
func DenseEntryAssembler(g *Grid, fill RunFill) *Assembler {
	ts := g.TS
	return &Assembler{
		offDiag: offDense,
		Tile: func(i, j int) tile.Tile {
			return &tile.DenseF64{D: denseBlock(g.TileRows(i), g.TileRows(j), i*ts, j*ts, fill)}
		},
	}
}

// TLREntryAssembler streams the TLR layout — dense float64 diagonal, low rank
// off the diagonal at relative accuracy tol with rank cap maxRank (0 =
// uncapped) — directly inside the factorization graph. A kernel's tiles come
// from ACA (two runs per cross, O(rank) runs of ts entries per tile); one whose
// cross iteration runs out of rank budget (typical for near-diagonal tiles of
// smooth kernels, where a capped ACA has uncontrolled error) or fails ACA's
// sampled residual check (a matrix that is not smooth in its indices) is
// densified for the optimal truncation instead — as is every tile of an
// inMemory source, where a run is a copy. Every off-diagonal tile being low
// rank by construction, the graph is built on it: a tile past column 0 has no
// assemble task and is built inside the one task that applies its Schur
// updates. The grid must be the one passed to PotrfStream.
func TLREntryAssembler(g *Grid, fill RunFill, tol float64, maxRank int, inMemory bool) *Assembler {
	ts := g.TS
	return &Assembler{
		offDiag: offLowRank,
		Tile: func(i, j int) tile.Tile {
			ri, rj := g.TileRows(i), g.TileRows(j)
			row0, col0 := i*ts, j*ts
			if i == j {
				return &tile.DenseF64{D: denseBlock(ri, ri, row0, row0, fill)}
			}
			if !inMemory {
				lr, ok := acaBlock(ri, rj, row0, col0, fill, tol, maxRank)
				if ok {
					return lr
				}
				discard(lr)
			}
			d := denseBlock(ri, rj, row0, col0, fill)
			lr := tile.Compress(d, tol, maxRank)
			putMat(d)
			return lr
		},
	}
}

// acaBlock runs ACA on the r×c block at (row0,col0) of the run evaluator: a
// pivot column is one run, a residual row the transposed run.
func acaBlock(r, c, row0, col0 int, fill RunFill, tol float64, maxRank int) (*tile.LowRank, bool) {
	return tile.CompressACAConv(r, c,
		func(dst []float64, i int) { fill(dst, col0, row0+i) },
		func(dst []float64, j int) { fill(dst, row0, col0+j) },
		tol, maxRank)
}

// discard recycles the factors of a low-rank tile nothing will reference: a
// disowned ACA result hands its panels to the fallback that replaces it, a
// tile finishTile recompressed to the result.
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
// into a pooled matrix, each column filled in place.
//
//repro:returns-pooled mat
func denseBlock(r, c, row0, col0 int, fill RunFill) *linalg.Matrix {
	d := getMat(r, c)
	for j := 0; j < c; j++ {
		fill(d.Col(j), row0, col0+j)
	}
	return d
}
