//go:build amd64

package cov

import (
	"math"
	"os"

	"repro/internal/geo"
	"repro/internal/stats"
)

// fillHalfAVX2 is fillHalf's loop four entries at a time, bit for bit (see
// fill_amd64.s): dst[r] = halfCov(c, sigma2, ‖pts[r] − q‖/rang), or diag
// where the distance is 0, for r < len(dst), a multiple of 4. It stops at
// the first 4-entry block holding an entry it cannot replay — a coordinate
// difference that is NaN or infinite, or t = h/rang above 708, where
// math.Exp leaves the branch the body replays — and returns how many entries
// it wrote. The caller must have checked vecParams(sigma2, rang).
//
//go:noescape
func fillHalfAVX2(dst []float64, pts []geo.Point, q geo.Point, c []float64, sigma2, diag, rang float64) int

// fillVec selects the vector body: the CPU probe and the REPRO_NOASM switch
// internal/stats runs its kernels under, and math.Exp taking the FMA branch
// the body replays. It does wherever the probe holds, unless GODEBUG turns
// FMA off; the two branches give e^{−0.2} one ulp apart, and
// 0x3fea330ad6166159 is the FMA branch's. Only tests assign it.
var fillVec = stats.CPUHasAVX2FMA() && os.Getenv("REPRO_NOASM") == "" &&
	math.Float64bits(math.Exp(-0.2)) == 0x3fea330ad6166159

// fillTab holds the body's constants, each replicated ×4 so a VFMADD or
// VCMPPD memory operand reads a broadcast block; the layout is at the top of
// fill_amd64.s. The exp constants are archExp's (math/exp_amd64.s).
var fillTab [17 * 4]float64

func init() {
	vals := [17]float64{
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), // 0: |x| mask
		math.Float64frombits(1 << 63),            // 1: sign mask
		1,                                        // 2
		2,                                        // 3
		0.0625,                                   // 4
		1.4426950408889634073599246810018920,     // 5: log2(e)
		0.69314718055966295651160180568695068359375,           // 6: ln2 upper
		0.28235290563031577122588448175013436025525412068e-12, // 7: ln2 lower
		2.4801587301587301587e-5,                              // 8: 1/8!
		1.9841269841269841270e-4,                              // 9: 1/7!
		1.3888888888888888889e-3,                              // 10: 1/6!
		8.3333333333333333333e-3,                              // 11: 1/5!
		4.1666666666666666667e-2,                              // 12: 1/4!
		1.6666666666666666667e-1,                              // 13: 1/3!
		0.5,                                                   // 14: 1/2!
		708,                                                   // 15: the largest t replayed
		math.Float64frombits(1023<<32 | 1023),                 // 16: exponent bias, int32 lanes
	}
	for i, v := range vals {
		for l := 0; l < 4; l++ {
			fillTab[4*i+l] = v
		}
	}
}
