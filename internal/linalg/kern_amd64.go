//go:build amd64

package linalg

import "os"

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// micro-kernels (implemented in kern_amd64.s).
func cpuHasAVX2FMA() bool

// dgemmKern8x6 computes the packed 8×6 double-precision register tile.
//
//go:noescape
//repro:noalloc
func dgemmKern8x6(k int, ap, bp, c *float64)

// sgemmKern16x6 computes the packed 16×6 single-precision register tile.
//
//go:noescape
//repro:noalloc
func sgemmKern16x6(k int, ap, bp, c *float32)

// ddot returns Σ x[i]·y[i] (AVX2+FMA).
//
//go:noescape
//repro:noalloc
func ddot(n int, x, y *float64) float64

// daxpy computes y += a·x (AVX2+FMA).
//
//go:noescape
//repro:noalloc
func daxpy(n int, a float64, x, y *float64)

// drot applies the plane rotation (x,y) ← (c·x−s·y, s·x+c·y) (AVX2+FMA).
//
//go:noescape
func drot(n int, x, y *float64, c, s float64)

//repro:noalloc
func dotVec(x, y []float64) float64     { return ddot(len(x), &x[0], &y[0]) }
//repro:noalloc
func axpyVec(a float64, x, y []float64) { daxpy(len(x), a, &x[0], &y[0]) }
func rotVec(x, y []float64, c, s float64) {
	drot(len(x), &x[0], &y[0], c, s)
}

// hasVectorKernels gates the packed blocked kernels onto the native
// micro-kernel; when false the portable Go micro-kernel is used and the
// public dispatchers prefer the historical unpacked loops. Setting
// REPRO_NOASM to any non-empty value forces the portable path even on
// vector-capable hosts (same switch internal/stats honours), keeping the
// fallback loops continuously testable.
var hasVectorKernels = cpuHasAVX2FMA() && os.Getenv("REPRO_NOASM") == ""

// microF64 runs the native 8×6 micro-kernel.
//repro:noalloc
func microF64(k int, ap, bp []float64, c *[mrReg * nrReg]float64) {
	dgemmKern8x6(k, &ap[0], &bp[0], &c[0])
}

// MicroF32 exposes the native 16×6 single-precision micro-kernel to the
// float32 tile kernels (package tile): c[i+16j] = Σ_l ap[16l+i]·bp[6l+j].
// Callers must check HasVectorKernels first.
//repro:noalloc
func MicroF32(k int, ap, bp []float32, c *[96]float32) {
	sgemmKern16x6(k, &ap[0], &bp[0], &c[0])
}
