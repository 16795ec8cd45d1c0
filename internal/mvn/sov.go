package mvn

import (
	"math"

	"repro/internal/stats"
)

// chainStep performs one step of the Genz SOV recursion for one chain:
// given the shifted limits a', b' (already divided by the diagonal pivot)
// and the uniform draw w, it returns the interval probability factor and
// the conditioning value y = Φ⁻¹(Φ(a′) + w·(Φ(b′)−Φ(a′))).
//
// When the interval probability underflows, the factor is 0 and y falls
// back to a finite midpoint so downstream arithmetic stays NaN-free.
func chainStep(aPrime, bPrime, w float64) (factor, y float64) {
	diff, da := stats.PhiIntervalAndPhi(aPrime, bPrime)
	if diff <= 0 {
		return 0, emptyIntervalY(aPrime, bPrime)
	}
	y = stats.PhiInv(da + w*diff)
	if math.IsInf(y, 0) || math.IsNaN(y) {
		y = clampTailY(y, aPrime, bPrime)
	}
	return diff, y
}

// emptyIntervalY is the finite conditioning value of a chain whose interval
// probability underflowed: a midpoint or the nearer finite limit, keeping
// downstream arithmetic NaN-free. Shared by the scalar chainStep and the
// lane-batched kernel so both compute identical values.
func emptyIntervalY(aPrime, bPrime float64) (y float64) {
	switch {
	case !math.IsInf(aPrime, 0) && !math.IsInf(bPrime, 0):
		y = 0.5 * (aPrime + bPrime)
	case math.IsInf(aPrime, -1) && !math.IsInf(bPrime, 0):
		y = bPrime
	case !math.IsInf(aPrime, 0):
		y = aPrime
	}
	return y
}

// clampTailY replaces an extreme tail draw (Φ⁻¹ returned ±∞ or NaN) with the
// nearer finite limit. Shared by chainStep and the lane-batched kernel.
func clampTailY(y, aPrime, bPrime float64) float64 {
	if math.IsNaN(y) || math.IsInf(y, 1) {
		if !math.IsInf(bPrime, 1) {
			return bPrime
		}
		return 8.2 // Φ(8.2) is 1 to double precision
	}
	if !math.IsInf(aPrime, -1) {
		return aPrime
	}
	return -8.2
}

// shiftLimit computes (limit − acc)/d, preserving infinities.
func shiftLimit(limit, acc, d float64) float64 {
	if math.IsInf(limit, 0) {
		return limit
	}
	return (limit - acc) / d
}
