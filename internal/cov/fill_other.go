//go:build !amd64

package cov

import "repro/internal/geo"

// fillVec is always false without the amd64 body: fillHalf runs its scalar
// loop.
var fillVec = false

// fillHalfAVX2 is never reached when fillVec is false; the stub exists so
// fillHalf compiles on every platform.
func fillHalfAVX2(dst []float64, pts []geo.Point, q geo.Point, c []float64, sigma2, diag, rang float64) int {
	panic("cov: fillHalfAVX2 without the vector body")
}
