package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization encountered a
// non-positive pivot; the input matrix is not (numerically) positive
// definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// PotrfUnblocked overwrites the lower triangle of a with its Cholesky factor
// L (A = L·Lᵀ) using the unblocked right-looking algorithm. The strict upper
// triangle is left untouched. This is the per-tile kernel of the tiled
// factorization.
func PotrfUnblocked(a *Matrix) error {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: PotrfUnblocked needs square matrix")
	}
	for k := 0; k < n; k++ {
		ck := a.Col(k)
		d := ck[k]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, k, d)
		}
		d = math.Sqrt(d)
		ck[k] = d
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			ck[i] *= inv
		}
		// Rank-1 update of the trailing lower triangle.
		for j := k + 1; j < n; j++ {
			if v := ck[j]; v != 0 {
				cj := a.Col(j)
				for i := j; i < n; i++ {
					cj[i] -= v * ck[i]
				}
			}
		}
	}
	return nil
}

// PotrfBlocked overwrites the lower triangle of a with its Cholesky factor
// using a right-looking blocked algorithm with block size nb. It is the
// sequential reference for the task-parallel tiled version.
func PotrfBlocked(a *Matrix, nb int) error {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: PotrfBlocked needs square matrix")
	}
	if nb <= 0 {
		nb = 64
	}
	for k := 0; k < n; k += nb {
		b := min(nb, n-k)
		akk := a.View(k, k, b, b)
		if err := PotrfUnblocked(akk); err != nil {
			return err
		}
		rest := n - k - b
		if rest == 0 {
			continue
		}
		panel := a.View(k+b, k, rest, b)
		TrsmLower(Right, true, 1, akk, panel)
		Syrk(false, -1, panel, 1, a.View(k+b, k+b, rest, rest))
	}
	return nil
}

// Cholesky returns the lower Cholesky factor of the symmetric positive
// definite matrix a (only the lower triangle of a is read). The input is not
// modified.
func Cholesky(a *Matrix) (*Matrix, error) { return CholeskyInPlace(a.Clone()) }

// cholStep is the block size of CholeskyInPlace and CholeskyTasks.
const cholStep = 64

// CholeskyInPlace is Cholesky for a caller done with a, which it overwrites.
func CholeskyInPlace(a *Matrix) (*Matrix, error) {
	if err := PotrfBlocked(a, cholStep); err != nil {
		return nil, err
	}
	a.LowerFromFull()
	return a, nil
}
