//go:build !amd64

package stats

// hasVecSpecials is always false without the amd64 kernels: every batch
// dispatcher takes its portable scalar path.
var hasVecSpecials = false

// The vector entry points are never reached when hasVecSpecials is false;
// the stubs exist so the dispatchers compile on every platform.

func erfcSimd(n int, x, dst *float64, mulIn, mulOut float64) {
	panic("stats: erfcSimd without vector kernels")
}

func phiInvSimd(n int, p, dst, tmp *float64) {
	panic("stats: phiInvSimd without vector kernels")
}

func genzPreSimd(n int, lim, d float64, acc, s, sel, lp, x *float64) {
	panic("stats: genzPreSimd without vector kernels")
}

func genzPostSimd(n, kind int, a, b, w, dif, u *float64) {
	panic("stats: genzPostSimd without vector kernels")
}
