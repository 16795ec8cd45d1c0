//go:build !amd64

package linalg

// Non-amd64 builds have no native micro-kernel: the packed blocked path
// stays available through the portable Go micro-kernel (for tests and
// callers that ask for it), but the public dispatchers keep routing to the
// historical unpacked loops, which are faster than packing without vector
// FMA underneath.
var hasVectorKernels = false

// kernelISA: only the portable micro-kernel exists here (see kern_amd64.go).
var kernelISA = isaGo

func microF64(k int, ap, bp, c []float64, ldc int, alpha float64) {
	microF64Go(k, ap, bp, c, ldc, alpha)
}

// The level-1 vector kernels are never reached when hasVectorKernels is
// false; the dispatchers fall back to the scalar loops first.
func dotVec(x, y []float64) float64       { panic("linalg: no vector kernels") }
func axpyVec(a float64, x, y []float64)   { panic("linalg: no vector kernels") }
func rotVec(x, y []float64, c, s float64) { panic("linalg: no vector kernels") }
func axpyColsVec(acc, c []float64, incc, nt int, y []float64, ldy int) {
	panic("linalg: no vector kernels")
}
