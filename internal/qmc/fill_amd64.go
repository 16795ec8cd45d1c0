//go:build amd64

package qmc

import (
	"os"

	"repro/internal/stats"
)

// latticeFill is FillBlock's loop over one column four lanes at a time, bit
// for bit (see fill_amd64.s): dst[l] = clamp01(frac(frac((k+l)·a) + sh)),
// the outer frac only when shifted, for l < len(dst), a multiple of 4.
//
//go:noescape
func latticeFill(dst []float64, k, a, sh float64, shifted bool)

// fillVec selects the vector body: the CPU probe and the REPRO_NOASM switch
// internal/stats runs its kernels under. Only tests assign it.
var fillVec = stats.CPUHasAVX2FMA() && os.Getenv("REPRO_NOASM") == ""

// latticeTab holds the body's constants: the lane ramp 0…3, the lane step,
// and clamp01's bounds.
var latticeTab = [7]float64{0, 1, 2, 3, 4, clampLo, clampHi}
