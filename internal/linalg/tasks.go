package linalg

import "repro/internal/taskrt"

// The task forms of the dense kernels, for the set-up algebra that runs on a
// whole matrix: the Cholesky factor a field is sampled with
// (internal/datagen), the posterior's factor, solve, update and mirror
// (cov.Posterior), the columns of an assembled Σ (cov.Matrix). Each cuts a
// serial kernel along its own blocks (TrsmLowerPart, SyrkTile,
// SymmetrizeCols) and runs the pieces as tasks on rt, waiting for them:
// every element takes the serial call's operations in the serial call's
// order, so the results are the serial kernels' bits at any worker count.
// Work that is one piece runs on the calling goroutine. The tiled
// factorizations a query integrates with are internal/engine's.

// taskSide is the side of the pieces: a 256-row or 256-column block of a
// solve or of a column range, a 256×256 tile of an update — four SYRK
// blocks a side, as SyrkTile needs.
const taskSide = 4 * syrkBlockSize

// CholeskyTasks is CholeskyInPlace on rt: PotrfBlocked(a, 64)'s arithmetic,
// then the strict upper triangle zeroed. Each 64-wide step factors its
// diagonal block with PotrfUnblocked on the calling goroutine, solves its
// panel as one task per 256-row block and updates the trailing matrix as
// one task per 256×256 lower tile, waiting for each phase, so every element
// takes the serial call's depth-64 chains in the same order. A non-positive
// pivot is PotrfBlocked's error.
func CholeskyTasks(rt taskrt.Submitter, a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: CholeskyTasks needs square matrix")
	}
	for k := 0; k < n; k += cholStep {
		b := min(cholStep, n-k)
		akk := a.View(k, k, b, b)
		if err := PotrfUnblocked(akk); err != nil {
			return nil, err
		}
		rest := n - k - b
		if rest == 0 {
			continue
		}
		panel := a.View(k+b, k, rest, b)
		trsmLowerTasks(rt, Right, true, akk, panel)
		SyrkTasks(rt, false, -1, panel, a.View(k+b, k+b, rest, rest))
	}
	a.LowerFromFull()
	return a, nil
}

// trsmLowerTasks is TrsmLower(side, trans, 1, l, b) on rt: one task per
// 256-row block of b for side Right, per 256-column block for side Left.
func trsmLowerTasks(rt taskrt.Submitter, side TrsmSide, trans bool, l, b *Matrix) {
	ext := b.Cols
	if side == Right {
		ext = b.Rows
	}
	BlockTasks(rt, "trsm", ext, func(lo, hi int) { TrsmLowerPart(side, trans, l, b, lo, hi) })
}

// SyrkTasks is Syrk(trans, alpha, a, 1, c) on rt: one task per 256×256 tile
// of c's lower triangle.
func SyrkTasks(rt taskrt.Submitter, trans bool, alpha float64, a, c *Matrix) {
	n := c.Rows
	if n <= taskSide {
		SyrkTile(trans, alpha, a, c, 0, 0, n, n)
		return
	}
	for j0 := 0; j0 < n; j0 += taskSide {
		for i0 := j0; i0 < n; i0 += taskSide {
			i0, j0 := i0, j0
			rt.Submit("syrk", 0, func() {
				SyrkTile(trans, alpha, a, c, i0, j0, min(taskSide, n-i0), min(taskSide, n-j0))
			})
		}
	}
	rt.Wait()
}

// SymmetrizeTasks is m.SymmetrizeFromLower on rt: one task per 256 columns.
func SymmetrizeTasks(rt taskrt.Submitter, m *Matrix) {
	BlockTasks(rt, "mirror", min(m.Rows, m.Cols), m.SymmetrizeCols)
}

// BlockTasks runs fn(lo, hi) over [0, n) cut into 256-long blocks, one task
// named name each, and waits for them: for work whose blocks touch
// disjoint data.
func BlockTasks(rt taskrt.Submitter, name string, n int, fn func(lo, hi int)) {
	if n <= taskSide {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	for lo := 0; lo < n; lo += taskSide {
		lo := lo
		rt.Submit(name, 0, func() { fn(lo, min(lo+taskSide, n)) })
	}
	rt.Wait()
}
