//go:build amd64

package linalg

import "os"

// cpuKernelLevel reports what the CPU and the OS together support (see
// kern_amd64.s): 0 nothing, 1 AVX2+FMA, 2 also AVX512F.
func cpuKernelLevel() int

// The micro-kernels of kern_amd64.s, one contract (blocked.go): a full
// mrReg×nrReg tile of C at c, ldc elements between columns,
// += alpha · packed-A panel · packed-B panel, written unchecked.
//
//go:noescape
func dgemmKern16x6Z(k int, ap, bp, c *float64, ldc int, alpha float64)

//go:noescape
func dgemmKern16x6Y(k int, ap, bp, c *float64, ldc int, alpha float64)

// ddot returns Σ x[i]·y[i] (AVX2+FMA).
//
//go:noescape
func ddot(n int, x, y *float64) float64

// daxpy computes y += a·x (AVX2+FMA).
//
//go:noescape
func daxpy(n int, a float64, x, y *float64)

// drot applies the plane rotation (x,y) ← (c·x−s·y, s·x+c·y) (AVX2+FMA).
//
//go:noescape
func drot(n int, x, y *float64, c, s float64)

// daxpyCols computes acc[i] += Σ_t c[t·incc]·y[t·ldy+i], i < n, t < nt, the
// terms in order and zero coefficients skipped (AVX2+FMA).
//
//go:noescape
func daxpyCols(n, nt int, c *float64, incc int, y *float64, ldy int, acc *float64)

func dotVec(x, y []float64) float64     { return ddot(len(x), &x[0], &y[0]) }
func axpyVec(a float64, x, y []float64) { daxpy(len(x), a, &x[0], &y[0]) }
func rotVec(x, y []float64, c, s float64) {
	drot(len(x), &x[0], &y[0], c, s)
}
func axpyColsVec(acc, c []float64, incc, nt int, y []float64, ldy int) {
	daxpyCols(len(acc), nt, &c[0], incc, &y[0], ldy, &acc[0])
}

// kernelISA is the micro-kernel under every packed product, chosen once:
// the widest the CPU and OS support, or the portable loop when REPRO_NOASM is
// set to any non-empty value (same switch internal/stats honours), which
// keeps the fallback loops continuously testable. Only tests assign to it.
var kernelISA = func() int {
	if os.Getenv("REPRO_NOASM") != "" {
		return isaGo
	}
	return cpuKernelLevel()
}()

// hasVectorKernels gates the level-1 AVX2 kernels and routes the public
// dispatchers onto the packed path; when false they prefer the historical
// unpacked loops.
var hasVectorKernels = kernelISA != isaGo

// microF64 is the micro-kernel contract on the selected ISA.
func microF64(k int, ap, bp, c []float64, ldc int, alpha float64) {
	_ = c[(nrReg-1)*ldc+mrReg-1] // the native kernels store the whole tile unchecked
	switch kernelISA {
	case isaAVX512:
		dgemmKern16x6Z(k, &ap[0], &bp[0], &c[0], ldc, alpha)
	case isaAVX2:
		dgemmKern16x6Y(k, &ap[0], &bp[0], &c[0], ldc, alpha)
	default:
		microF64Go(k, ap, bp, c, ldc, alpha)
	}
}
