package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/taskrt"
)

// denseWorkers are the pool sizes the task forms are checked at: the bits
// must not depend on it.
var denseWorkers = []int{1, 2, 4}

// requireBits fails t unless got and want hold the same float64 bits.
func requireBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i, j, ok := sameBits(got, want); !ok {
		t.Fatalf("%s: (%d,%d) = %v, serial %v", what, i, j, got.At(i, j), want.At(i, j))
	}
}

// eachPath runs f on the vector kernels, when the host has them, and on the
// portable loops (REPRO_NOASM's path), restoring the selection: the two
// dispatch differently, and a task form must follow each.
func eachPath(t *testing.T, f func(t *testing.T)) {
	isa, vec := kernelISA, hasVectorKernels
	defer func() { kernelISA, hasVectorKernels = isa, vec }()
	if vec {
		t.Run("vector", f)
	}
	kernelISA, hasVectorKernels = isaGo, false
	t.Run("portable", f)
}

// CholeskyTasks is PotrfBlocked(a, 64) then LowerFromFull, bit for bit:
// orders around one step (63, 64, 65), a trailing matrix one past a tile
// (321: a 1-row panel block and a 1×1 update tile beside full ones) and a
// ragged one (777; not on the portable loops, whose slowness it would only
// add: 321 has every part shape), at every pool size.
func TestCholeskyTasksMatchPotrfBlocked(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		ns := []int{1, 63, 64, 65, 321, 777}
		if !hasVectorKernels {
			ns = ns[:5]
		}
		for _, n := range ns {
			a := randSPD(n, rng)
			want := a.Clone()
			if err := PotrfBlocked(want, 64); err != nil {
				t.Fatal(err)
			}
			want.LowerFromFull()
			for _, w := range denseWorkers {
				rt := taskrt.New(w)
				got, err := CholeskyTasks(rt, a.Clone())
				rt.Shutdown()
				if err != nil {
					t.Fatalf("n=%d, %d workers: %v", n, w, err)
				}
				requireBits(t, fmt.Sprintf("n=%d, %d workers", n, w), got, want)
			}
		}
	})
}

// A non-positive pivot in a later step is PotrfBlocked's error.
func TestCholeskyTasksNotPositiveDefinite(t *testing.T) {
	a := randSPD(400, rand.New(rand.NewSource(4)))
	a.Set(300, 300, -1)
	wantErr := PotrfBlocked(a.Clone(), 64)
	if !errors.Is(wantErr, ErrNotPositiveDefinite) {
		t.Fatalf("serial: %v", wantErr)
	}
	for _, w := range denseWorkers {
		rt := taskrt.New(w)
		_, err := CholeskyTasks(rt, a.Clone())
		rt.Shutdown()
		if !errors.Is(err, ErrNotPositiveDefinite) || err.Error() != wantErr.Error() {
			t.Errorf("%d workers: err = %v, want %v", w, err, wantErr)
		}
	}
}

// SyrkTasks is Syrk with beta 1, bit for bit, both orientations: orders
// with a ragged last tile of 1, 2 and 11 (where the serial call's last
// blocks take the unpacked kernel), depths below and past one packed panel.
func TestSyrkTasksMatchSerial(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{5, 257, 258, 267} {
			for _, k := range []int{1, 64, 300} {
				for _, trans := range []bool{false, true} {
					ar, ac := n, k
					if trans {
						ar, ac = k, n
					}
					a := randMatrix(ar, ac, rng)
					c := randMatrix(n, n, rng)
					want := c.Clone()
					Syrk(trans, -1, a, 1, want)
					for _, w := range denseWorkers {
						rt := taskrt.New(w)
						got := c.Clone()
						SyrkTasks(rt, trans, -1, a, got)
						rt.Shutdown()
						requireBits(t, fmt.Sprintf("n=%d k=%d trans=%v, %d workers", n, k, trans, w), got, want)
					}
				}
			}
		}
	})
}

// trsmLowerTasks is TrsmLower with alpha 1, bit for bit, in all four variants:
// triangles of order 33 (a 1-row remainder after one substitution block,
// where a 256-wide part alone would take the unpacked GEMM) and 64, and
// right-hand sides with a last part of one row or column.
func TestTrsmTasksMatchSerial(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for _, n := range []int{5, 33, 64} {
			l := randSPD(n, rng)
			if err := PotrfBlocked(l, 64); err != nil {
				t.Fatal(err)
			}
			for _, ext := range []int{7, 257, 513} {
				for _, side := range []TrsmSide{Left, Right} {
					for _, trans := range []bool{false, true} {
						br, bc := ext, n
						if side == Left {
							br, bc = n, ext
						}
						b := randMatrix(br, bc, rng)
						want := b.Clone()
						TrsmLower(side, trans, 1, l, want)
						for _, w := range denseWorkers {
							rt := taskrt.New(w)
							got := b.Clone()
							trsmLowerTasks(rt, side, trans, l, got)
							rt.Shutdown()
							requireBits(t, fmt.Sprintf("n=%d ext=%d side=%v trans=%v, %d workers", n, ext, side, trans, w), got, want)
						}
					}
				}
			}
		}
	})
}

// SymmetrizeTasks is the element-wise mirror of the lower triangle.
func TestSymmetrizeTasksMatchSerial(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{0, 1, 17, 256, 700} {
			a := randMatrix(n, n, rng)
			want := a.Clone()
			for j := 0; j < n; j++ {
				for i := j + 1; i < n; i++ {
					want.Set(j, i, want.At(i, j))
				}
			}
			for _, w := range denseWorkers {
				rt := taskrt.New(w)
				got := a.Clone()
				SymmetrizeTasks(rt, got)
				rt.Shutdown()
				requireBits(t, fmt.Sprintf("n=%d, %d workers", n, w), got, want)
			}
		}
	})
}
