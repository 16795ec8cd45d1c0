//go:build !amd64

package qmc

// fillVec is always false without the amd64 body: FillBlock runs its scalar
// loops.
var fillVec = false

// latticeFill is never reached when fillVec is false; the stub exists so
// FillBlock compiles on every platform.
func latticeFill(dst []float64, k, a, sh float64, shifted bool) {
	panic("qmc: latticeFill without the vector body")
}
